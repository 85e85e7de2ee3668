//! The append-only trace spool: the log half of the daemon's
//! snapshot + log persistence (DESIGN.md §13).
//!
//! Every emitted [`jmso_sim::SlotRecord`] is serialised once, into the
//! service's batch buffer; each batch is appended here in one `write`
//! and broadcast to the fan-out, and the records are dropped.
//! The checkpoint sidecar then carries recorder state without records,
//! and the final trace is the header line + these bytes. The batch is
//! appended before each sidecar is captured and the spool synced before
//! that sidecar's rename, so a sidecar whose recorder has emitted `k` records
//! implies a spool of at least `k` complete lines; whatever follows them
//! (slots run after the checkpoint, a torn last write) is cut off on
//! resume and re-appended as those slots re-run.

use jmso_sim::{sync_parent_dir, TraceError};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Read size when finding the line prefix to keep.
const READ_BUFFER: usize = 1 << 16;

pub(crate) struct TraceSpool {
    path: PathBuf,
    file: File,
}

impl TraceSpool {
    /// Open (creating if absent) the spool of the trace destined for
    /// `trace` — `<trace>.spool` — keep exactly its first `keep` lines
    /// and position for appending. `keep = 0` starts a fresh spool.
    /// Fails (cutting nothing) when fewer than `keep` complete lines
    /// are there.
    pub(crate) fn open(trace: &Path, keep: u64) -> Result<Self, TraceError> {
        let mut path = trace.as_os_str().to_os_string();
        path.push(".spool");
        let path = PathBuf::from(path);
        match Self::open_file(&path, keep) {
            Ok(file) => Ok(Self { path, file }),
            Err(source) => Err(TraceError::Io { path, source }),
        }
    }

    fn open_file(path: &Path, keep: u64) -> io::Result<File> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let end = offset_after_lines(&file, keep)?;
        file.set_len(end)?;
        file.seek(SeekFrom::Start(end))?;
        // The file may have just been created.
        sync_parent_dir(path);
        Ok(file)
    }

    fn io_err(&self, source: io::Error) -> TraceError {
        TraceError::Io {
            path: self.path.clone(),
            source,
        }
    }

    /// Append whole record lines, each ending in `\n`, in one `write`.
    pub(crate) fn append(&mut self, lines: &str) -> Result<(), TraceError> {
        self.file
            .write_all(lines.as_bytes())
            .map_err(|e| self.io_err(e))
    }

    /// A second handle on the file, whose [`SpoolSync::sync`] makes
    /// everything appended so far durable: the slot thread goes on
    /// appending, the persist thread waits for the disk.
    pub(crate) fn syncer(&self) -> Result<SpoolSync, TraceError> {
        self.file
            .try_clone()
            .map(|file| SpoolSync {
                path: self.path.clone(),
                file,
            })
            .map_err(|e| self.io_err(e))
    }

    /// The spool's whole contents.
    pub(crate) fn read(&self) -> Result<Vec<u8>, TraceError> {
        std::fs::read(&self.path).map_err(|e| self.io_err(e))
    }

    /// The run is over and its trace is on disk: delete the spool.
    pub(crate) fn remove(self) {
        let Self { path, file } = self;
        drop(file);
        let _ = std::fs::remove_file(path);
    }
}

/// The spool file as of one [`TraceSpool::syncer`].
pub(crate) struct SpoolSync {
    path: PathBuf,
    file: File,
}

impl SpoolSync {
    /// `fdatasync`: the data and the file length needed to read it back.
    pub(crate) fn sync(self) -> Result<(), TraceError> {
        self.file.sync_data().map_err(|source| TraceError::Io {
            path: self.path,
            source,
        })
    }
}

/// Byte offset just past the `lines`-th newline of `file`.
fn offset_after_lines(file: &File, lines: u64) -> io::Result<u64> {
    if lines == 0 {
        return Ok(0);
    }
    let mut reader = BufReader::with_capacity(READ_BUFFER, file);
    let (mut seen, mut offset) = (0u64, 0u64);
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("holds {seen} complete lines, the checkpoint needs {lines}"),
            ));
        }
        for (i, &b) in buf.iter().enumerate() {
            if b == b'\n' {
                seen += 1;
                if seen == lines {
                    return Ok(offset + i as u64 + 1);
                }
            }
        }
        let n = buf.len();
        offset += n as u64;
        reader.consume(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace path and the spool path `open` derives from it.
    fn tmp(name: &str) -> (PathBuf, PathBuf) {
        let trace = std::env::temp_dir().join(format!("jmso-spool-{}-{name}", std::process::id()));
        let spool = PathBuf::from(format!("{}.spool", trace.display()));
        let _ = std::fs::remove_file(&spool);
        (trace, spool)
    }

    fn contents(spool: &TraceSpool) -> String {
        String::from_utf8(spool.read().expect("read spool")).expect("utf-8")
    }

    #[test]
    fn reopen_keeps_a_line_prefix_and_appends_after_it() {
        let (trace, path) = tmp("prefix");
        let mut s = TraceSpool::open(&trace, 0).expect("fresh spool");
        s.append("a\nbb\n").expect("append");
        s.append("ccc\n").expect("append");
        s.syncer().expect("syncer").sync().expect("sync");
        drop(s);
        // A torn fourth line, as a kill -9 mid-write leaves it.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"dd").expect("torn tail");
        drop(f);

        let mut s = TraceSpool::open(&trace, 2).expect("two lines are there");
        assert_eq!(contents(&s), "a\nbb\n");
        s.append("again\n").expect("append");
        assert_eq!(contents(&s), "a\nbb\nagain\n");
        drop(s);

        let s = TraceSpool::open(&trace, 3).expect("three complete lines");
        assert_eq!(contents(&s), "a\nbb\nagain\n");
        s.remove();
        assert!(!path.exists());
    }

    #[test]
    fn short_or_missing_spool_is_an_error_not_a_panic() {
        let (trace, path) = tmp("short");
        let e = TraceSpool::open(&trace, 1).err().expect("missing spool");
        assert!(e.to_string().contains("holds 0 complete lines"), "{e}");
        std::fs::write(&path, b"one\ntorn").expect("plant");
        let e = TraceSpool::open(&trace, 2).err().expect("short spool");
        assert!(e.to_string().contains("holds 1 complete lines"), "{e}");
        // The failed open must not have cut anything.
        assert_eq!(std::fs::read(&path).expect("read"), b"one\ntorn");
        let _ = std::fs::remove_file(&path);
    }
}
