//! The worker side of the distributed trainer: the handshake.
//!
//! A worker connects to the coordinator's Unix socket, introduces itself
//! (Hello), and receives its Setup: the full tensor, the
//! [`crate::config::LossStrategy`], the contiguous block of **global**
//! entry chunks it evaluates, and the fleet size that fixes which factor
//! rows it owns. It then serves the tail-sharded epoch protocol of
//! [`super::sharded`] until Shutdown. Each epoch evaluates its block with
//! the in-process trainer's own entry-chunk evaluator
//! (`loss::eval_entry_chunks`) and builds its owned Gram tail rows with
//! the in-process Gram-row builder (`loss::add_gram_rows`).

use super::wire::{decode_setup, encode_hello, tag_of, MAX_FRAME_LEN, TAG_SETUP};
use super::DistError;
use crate::frame::{read_frame, write_frame, FrameDecoder};
use crate::loss::ENTRIES_PER_CHUNK;
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
    // `decode_setup` bounds the block by the entries' chunk grid, so
    // these products cannot overflow.
    let n_entries = tensor.entries().len();
    let entry_lo = (setup.chunk_start * ENTRIES_PER_CHUNK).min(n_entries);
    let entry_hi = (setup.chunk_end * ENTRIES_PER_CHUNK).min(n_entries);
    let ws = TrainWorkspace::new();

    super::sharded::run_sharded_worker(
        stream, dec, setup, tensor, entry_lo, entry_hi, ws, worker_id,
    )
}
