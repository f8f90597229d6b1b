//! End-to-end tests of the `tcss` CLI binary: the full
//! generate → train → recommend → evaluate loop through the executable.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tcss"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tcss_cli_tests").join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn full_cli_roundtrip() {
    let dir = workdir("roundtrip");
    let stem = dir.join("gmu");
    let model = dir.join("model.tcss");

    // generate
    let out = bin()
        .args(["generate", "--preset", "gmu-5k", "--out"])
        .arg(&stem)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stem
        .with_extension("")
        .parent()
        .unwrap()
        .join("gmu.pois.csv")
        .exists());

    // train (few epochs; CLI paths, not model quality, are under test)
    let out = bin()
        .args(["train", "--epochs", "5", "--lambda", "0", "--data"])
        .arg(&stem)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("model written"), "{stdout}");

    // recommend
    let out = bin()
        .args([
            "recommend",
            "--user",
            "0",
            "--month",
            "5",
            "--top",
            "3",
            "--data",
        ])
        .arg(&stem)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run recommend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("poi ").count(), 3, "{stdout}");

    // recommend-batch: three requests, one a duplicate. All three are
    // looked up before the batch is scored, so all miss the top-n cache
    // and the duplicate's ranking overwrites its twin's entry.
    let out = bin()
        .args([
            "recommend-batch",
            "--requests",
            "0:5,1:2,0:5",
            "--top",
            "3",
            "--data",
        ])
        .arg(&stem)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run recommend-batch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("poi ").count(), 9, "{stdout}");
    assert!(stdout.contains("user 0 month 5:"), "{stdout}");
    assert!(stdout.contains("user 1 month 2:"), "{stdout}");
    assert!(
        stdout.contains("served 3 request(s) in 1 batch(es) under model version 1"),
        "{stdout}"
    );
    assert!(
        stdout.contains("top-n cache: hits 1 misses 2 (33.3% hit), 2 entries live"),
        "{stdout}"
    );

    // recommend-batch must match per-request recommend for the same query.
    let single = bin()
        .args([
            "recommend",
            "--user",
            "0",
            "--month",
            "5",
            "--top",
            "3",
            "--data",
        ])
        .arg(&stem)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run recommend");
    let single_stdout = String::from_utf8_lossy(&single.stdout);
    for line in single_stdout.lines().filter(|l| l.contains("score ")) {
        let score = line.rsplit("score ").next().unwrap();
        assert!(stdout.contains(score), "batch output missing {score:?}");
    }

    // malformed request specs are rejected before any scoring
    let out = bin()
        .args(["recommend-batch", "--requests", "0-5", "--data"])
        .arg(&stem)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run recommend-batch");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expected <user>:<month>"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // evaluate
    let out = bin()
        .args(["evaluate", "--data"])
        .arg(&stem)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run evaluate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Hit@10"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_arguments_fail_with_usage() {
    let out = bin().args(["train"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--data"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_subcommand_fails() {
    let out = bin().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

/// Unknown flags fail before any work, naming the flag and printing
/// usage — a misspelt flag (`--epoch`) and a flag of a removed feature
/// (`--tail-shard`) alike, instead of being silently ignored.
#[test]
fn unknown_flags_fail_naming_the_flag() {
    for (args, flag) in [
        (&["train", "--tail-shard"][..], "--tail-shard"),
        (&["train", "--epoch", "3"][..], "--epoch"),
    ] {
        let out = bin().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag \"{flag}\"")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

/// `--help` prints usage and succeeds, bare or after a subcommand (where
/// it used to fail as an unknown flag).
#[test]
fn help_prints_usage() {
    for args in [
        &["--help"][..],
        &["train", "--help"],
        &["serve", "-h"],
        &["query", "--top", "5", "--help"],
    ] {
        let out = bin().args(args).output().expect("run");
        assert!(out.status.success(), "{args:?} must succeed");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage:"),
            "{args:?}"
        );
    }
}

/// A flag given twice, or a value flag ending the line without its
/// value, fails naming the flag before any work — instead of the first
/// value silently winning, or the flag reading as absent (which would
/// train for the default number of epochs).
#[test]
fn duplicate_or_valueless_flags_fail_naming_the_flag() {
    for (args, message) in [
        (
            &[
                "train", "--epochs", "3", "--synth", "gmu-5k", "--epochs", "4",
            ][..],
            "duplicate flag \"--epochs\" for tcss train",
        ),
        (
            &["train", "--resume", "--resume"],
            "duplicate flag \"--resume\" for tcss train",
        ),
        (
            &["train", "--synth", "gmu-5k", "--epochs"],
            "flag \"--epochs\" of tcss train needs a value",
        ),
    ] {
        let out = bin().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn model_dataset_mismatch_is_detected() {
    let dir = workdir("mismatch");
    let gmu = dir.join("gmu");
    let yelp = dir.join("yelp");
    let model = dir.join("model.tcss");
    assert!(bin()
        .args(["generate", "--preset", "gmu-5k", "--out"])
        .arg(&gmu)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["generate", "--preset", "yelp", "--out"])
        .arg(&yelp)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["train", "--epochs", "2", "--lambda", "0", "--data"])
        .arg(&gmu)
        .arg("--model")
        .arg(&model)
        .status()
        .unwrap()
        .success());
    // Evaluating the GMU model against the Yelp dataset must be rejected.
    let out = bin()
        .args(["evaluate", "--data"])
        .arg(&yelp)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("trained on"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_model_file_is_refused_naming_its_format() {
    let dir = workdir("legacy_text");
    let data = dir.join("gmu");
    let model = dir.join("model.tcss");
    assert!(bin()
        .args(["generate", "--preset", "gmu-5k", "--out"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    std::fs::write(&model, "tcss-model v2 2 2 2 1\nh: 1.0\n").unwrap();
    let out = bin()
        .args(["evaluate", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tcss-model v2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
