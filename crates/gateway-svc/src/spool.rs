//! The append-only trace spool: the log half of the daemon's
//! snapshot + log persistence (DESIGN.md §13).
//!
//! Every emitted [`jmso_sim::SlotRecord`] is serialised once, for the
//! fan-out; that same line is appended here and the record is dropped.
//! The checkpoint sidecar then carries recorder state without records,
//! and the final trace is the header line + these bytes. The spool is
//! flushed before each sidecar is captured and synced before that
//! sidecar's rename, so a sidecar whose recorder has emitted `k` records
//! implies a spool of at least `k` complete lines; whatever follows them
//! (slots run after the checkpoint, a torn last write) is cut off on
//! resume and re-appended as those slots re-run.

use jmso_sim::{sync_parent_dir, TraceError};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A record line is ≈ 10 B per user; at the paper cell's scale a few
/// slots share one `write`.
const WRITE_BUFFER: usize = 1 << 16;

pub(crate) struct TraceSpool {
    path: PathBuf,
    file: BufWriter<File>,
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
            Ok(file) => Ok(Self {
                path,
                file: BufWriter::with_capacity(WRITE_BUFFER, file),
            }),
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

    /// Append one record line (the newline is added here).
    pub(crate) fn append(&mut self, line: &str) -> Result<(), TraceError> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .map_err(|e| self.io_err(e))
    }

    /// Hand everything appended so far to the OS and return a second
    /// handle on the file, whose [`SpoolSync::sync`] makes those lines
    /// durable. Two steps because only this one needs the writer: the
    /// slot thread flushes and goes on appending, the persist thread
    /// waits for the disk.
    pub(crate) fn flush(&mut self) -> Result<SpoolSync, TraceError> {
        self.file
            .flush()
            .and_then(|()| self.file.get_ref().try_clone())
            .map(|file| SpoolSync {
                path: self.path.clone(),
                file,
            })
            .map_err(|e| self.io_err(e))
    }

    /// The spool's whole contents.
    pub(crate) fn read(&mut self) -> Result<Vec<u8>, TraceError> {
        self.file
            .flush()
            .and_then(|()| std::fs::read(&self.path))
            .map_err(|e| self.io_err(e))
    }

    /// The run is over and its trace is on disk: delete the spool.
    pub(crate) fn remove(self) {
        let Self { path, file } = self;
        drop(file);
        let _ = std::fs::remove_file(path);
    }
}

/// The spool file as of one [`TraceSpool::flush`].
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
    let mut reader = BufReader::with_capacity(WRITE_BUFFER, file);
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

    fn contents(spool: &mut TraceSpool) -> String {
        String::from_utf8(spool.read().expect("read spool")).expect("utf-8")
    }

    #[test]
    fn reopen_keeps_a_line_prefix_and_appends_after_it() {
        let (trace, path) = tmp("prefix");
        let mut s = TraceSpool::open(&trace, 0).expect("fresh spool");
        for line in ["a", "bb", "ccc"] {
            s.append(line).expect("append");
        }
        s.flush().expect("flush").sync().expect("sync");
        drop(s);
        // A torn fourth line, as a kill -9 mid-write leaves it.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"dd").expect("torn tail");
        drop(f);

        let mut s = TraceSpool::open(&trace, 2).expect("two lines are there");
        assert_eq!(contents(&mut s), "a\nbb\n");
        s.append("again").expect("append");
        assert_eq!(contents(&mut s), "a\nbb\nagain\n");
        drop(s);

        let mut s = TraceSpool::open(&trace, 3).expect("three complete lines");
        assert_eq!(contents(&mut s), "a\nbb\nagain\n");
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
