//! Self-removing scratch directories for tests and benchmark baselines.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp dir, owned by one caller and removed
/// with its contents on drop (also when a test panics). Its name carries a
/// tag, the process id and a process-wide counter, so owners running
/// concurrently, in one process or in several, never share one.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates an empty `intune-<tag>-<pid>-<n>` in the system temp dir.
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("intune-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("scratch-test");
        let b = ScratchDir::new("scratch-test");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.path().is_dir());
    }
}
