//! The worker side of the distributed trainer: handshake and chunk
//! evaluation.
//!
//! A worker connects to the coordinator's Unix socket, introduces itself
//! (Hello), and receives its Setup: the full tensor, the loss kernel
//! choice, the contiguous block of **global** entry chunks it evaluates,
//! and the fleet size that fixes which factor rows it owns. It then
//! serves the tail-sharded epoch protocol of [`super::sharded`] until
//! Shutdown. `eval_block` is the chunk evaluation every epoch runs,
//! with exactly the kernels the in-process trainer calls.

use super::wire::{decode_setup, encode_hello, tag_of, Setup, WireLoss, MAX_FRAME_LEN, TAG_SETUP};
use super::DistError;
use crate::frame::{read_frame, write_frame, FrameDecoder};
use crate::loss::{l2_entry_chunk, negative_sampling_chunk, ENTRIES_PER_CHUNK};
use crate::sparse_grads::{GradScratch, SparseGrads};
use crate::workspace::TrainWorkspace;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Run one worker process to completion: connect, handshake, serve
/// epochs until Shutdown (or a clean coordinator-side disconnect).
pub fn run_worker(socket: &Path, worker_id: u32) -> Result<(), DistError> {
    let mut stream = UnixStream::connect(socket)?;
    let mut hello = Vec::new();
    write_frame(&mut hello, &encode_hello(worker_id));
    stream.write_all(&hello)?;
    let mut dec = FrameDecoder::new(MAX_FRAME_LEN);

    let frame = read_frame::<DistError>(&mut stream, &mut dec)?.ok_or_else(|| {
        DistError::Protocol("coordinator disconnected before sending Setup".into())
    })?;
    if tag_of(&frame)? != TAG_SETUP {
        return Err(DistError::Protocol(format!(
            "expected Setup first, got tag {}",
            tag_of(&frame)?
        )));
    }
    let setup = decode_setup(&frame)?;
    // The worker's thread count composes with the chunk grid exactly like
    // TCSS_NUM_THREADS does in-process: a pure speed knob.
    tcss_linalg::set_num_threads(Some(setup.threads.max(1)));

    let tensor = tcss_sparse::SparseTensor3::from_entries(
        setup.dims,
        setup.entries.iter().map(|e| (e.i, e.j, e.k, e.value)),
    )
    .map_err(|e| DistError::Protocol(format!("setup tensor rejected: {e}")))?;
    let n_entries = tensor.entries().len();
    let entry_lo = (setup.chunk_start * ENTRIES_PER_CHUNK).min(n_entries);
    let entry_hi = (setup.chunk_end * ENTRIES_PER_CHUNK).min(n_entries);
    let ws = TrainWorkspace::new();

    super::sharded::run_sharded_worker(
        stream, dec, setup, tensor, entry_lo, entry_hi, ws, worker_id,
    )
}

/// Evaluate this worker's chunk block against one model broadcast.
///
/// The block `[entry_lo, entry_hi)` starts on an [`ENTRIES_PER_CHUNK`]
/// boundary of the **global** entry grid, so the local chunk grid laid
/// down by `map_chunks_with` coincides with a slice of the global one;
/// offsetting each local range recovers the global range the kernels (and
/// the negative-sampling RNG keyed on it) expect. Results come back in
/// ascending local = ascending global chunk order.
pub(super) fn eval_block(
    setup: &Setup,
    tensor: &tcss_sparse::SparseTensor3,
    model: &crate::model::TcssModel,
    entry_lo: usize,
    entry_hi: usize,
    epoch: u64,
    ws: &TrainWorkspace,
) -> Vec<(f64, SparseGrads)> {
    let entries = tensor.entries();
    tcss_linalg::map_chunks_with(
        entry_hi - entry_lo,
        ENTRIES_PER_CHUNK,
        || {
            let mut scratch = ws.scratch.acquire(|| GradScratch::for_model(model));
            scratch.ensure(model);
            scratch
        },
        |scratch, local| {
            let range = local.start + entry_lo..local.end + entry_lo;
            let mut delta = ws.deltas.take(SparseGrads::new);
            let loss = match setup.loss {
                WireLoss::L2Entries => l2_entry_chunk(
                    model,
                    entries,
                    range,
                    setup.w_plus,
                    setup.w_minus,
                    scratch,
                    &mut delta,
                ),
                WireLoss::NegSampling => negative_sampling_chunk(
                    model,
                    tensor,
                    range,
                    setup.w_plus,
                    setup.w_minus,
                    // Same per-epoch seed derivation as the in-process
                    // trainer: cfg.seed + epoch, then per-chunk mixing
                    // inside the kernel.
                    setup.seed.wrapping_add(epoch),
                    scratch,
                    &mut delta,
                ),
            };
            (loss, delta)
        },
    )
}
