//! Crash-safe file replacement for persistent artifacts (shard
//! manifests, traces, repair reports, lint baselines).

use std::io;
use std::path::Path;

/// Writes `bytes` to `path` atomically: the bytes go to a `<path>.tmp`
/// sibling first, which is then renamed over `path`, so a concurrent
/// reader or a killed writer never leaves a torn file behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrite_leaves_exactly_the_new_bytes_and_no_temp_sibling() {
        let dir = std::env::temp_dir().join(format!("wasabi-write-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        std::fs::write(&path, "old contents that are longer than the new ones").unwrap();

        write_atomic(&path, b"new").unwrap();

        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["report.json"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
