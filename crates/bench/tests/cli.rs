//! `repro`'s argument parser: every malformed command line exits 2 with
//! the usage text and leaves nothing behind, before any figure runs.

use std::path::PathBuf;
use std::process::Command;

/// Command lines the parser must refuse.
const REFUSED: &[&[&str]] = &[
    &["ratchet"],
    &["--compare"],
    &["--write"],
    &["--jobs", "0"],
    &["--pings", "abc"],
    &["table1", "--pings"],
    &["table1", "extra"],
    &["nosuchfig"],
];

#[test]
fn malformed_command_lines_exit_2_with_usage_and_write_nothing() {
    for (i, argv) in REFUSED.iter().enumerate() {
        // A fresh, empty working directory per case: anything `repro`
        // writes (it writes under `results/`) would show up in it.
        let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-cli-{i}"));
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).expect("create scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*argv)
            .current_dir(&cwd)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
        let left: Vec<_> = std::fs::read_dir(&cwd).expect("read scratch dir").collect();
        assert!(left.is_empty(), "{argv:?} wrote {left:?}");
        std::fs::remove_dir_all(&cwd).expect("remove scratch dir");
    }
}
