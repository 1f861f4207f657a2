//! Harness helpers shared by the root package's integration suites.

use std::path::PathBuf;

/// A fresh, empty directory for one test's files under the system temp
/// dir, named after the suite, `tag` and the process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-{}-{}-{}",
        env!("CARGO_CRATE_NAME"),
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
