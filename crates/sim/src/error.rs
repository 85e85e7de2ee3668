//! Typed errors for the simulation layer.
//!
//! Input handling (scenario validation, fault plans), trace I/O, and
//! checkpoint/resume all report failures through these enums instead of
//! panicking: the CLI can then say exactly which field, slot, or user was
//! at fault and exit nonzero, and library callers can branch on the kind.
//!
//! The [`std::fmt::Display`] forms are stable interfaces: scenario
//! validation messages keep the `<field> <reason>` shape (e.g. `n_users
//! must be positive`) that downstream tooling greps for.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A scenario (or fault-plan) field failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Dotted path of the offending field (e.g. `n_users`,
    /// `faults.events[3].user`).
    pub field: String,
    /// Why the value is rejected (e.g. `must be positive`).
    pub reason: String,
}

impl ScenarioError {
    /// Build an error for `field` with the given reason.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

impl std::error::Error for ScenarioError {}

/// Trace serialization / file I/O failed.
#[derive(Debug)]
pub enum TraceError {
    /// Reading or writing the trace file failed.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying OS error.
        source: io::Error,
    },
    /// A JSONL line did not parse.
    Parse {
        /// 0-based record line (the meta line is line 0).
        line: usize,
        /// Parser diagnostic.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, source } => {
                write!(f, "trace file {}: {source}", path.display())
            }
            TraceError::Parse { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            TraceError::Parse { .. } => None,
        }
    }
}

/// Checkpoint capture, storage, or restore failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the sidecar file failed.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying OS error.
        source: io::Error,
    },
    /// The checkpoint payload did not parse or has the wrong version.
    Corrupt {
        /// Parser / version diagnostic.
        reason: String,
    },
    /// A component refused the saved state (wrong scheduler, wrong user
    /// count, ...).
    Restore {
        /// Which engine component rejected the state.
        component: &'static str,
        /// The component's diagnostic.
        reason: String,
    },
    /// The run cannot be checkpointed (e.g. a recorder or scheduler that
    /// cannot export its state).
    Unsupported {
        /// What is missing.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint file {}: {source}", path.display())
            }
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Restore { component, reason } => {
                write!(f, "checkpoint restore ({component}): {reason}")
            }
            CheckpointError::Unsupported { reason } => {
                write!(f, "checkpointing unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Umbrella error for simulation-layer entry points.
#[derive(Debug)]
pub enum SimError {
    /// Scenario / fault-plan validation failed.
    Scenario(ScenarioError),
    /// Trace I/O failed.
    Trace(TraceError),
    /// Checkpoint capture or restore failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Scenario(e) => e.fmt(f),
            SimError::Trace(e) => e.fmt(f),
            SimError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Scenario(e) => Some(e),
            SimError::Trace(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<ScenarioError> for SimError {
    fn from(e: ScenarioError) -> Self {
        SimError::Scenario(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

// String conversions keep pre-typed-error call sites (`?` into
// `Result<_, String>` pipelines) compiling unchanged.
impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> Self {
        e.to_string()
    }
}

impl From<SimError> for String {
    fn from(e: SimError) -> Self {
        e.to_string()
    }
}

/// Durably replace the file at `path` with `bytes`: write to a `.tmp`
/// sibling, fsync it, atomically rename over the target, then fsync the
/// parent directory so the rename itself is durable.
///
/// Guarantee: after a crash at any point, `path` holds either the
/// complete old contents or the complete new contents — never a torn
/// mix, and (on Unix filesystems honouring directory fsync) never a
/// rename that silently vanishes on power loss. The service-mode
/// checkpoint/resume gate leans on exactly this: a `kill -9` between
/// checkpoints must leave a fully readable sidecar behind.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Fsync the directory holding `path`: a rename or a file creation is
/// only durable once the directory entry is on disk. Directories cannot
/// be opened for writing, but fsync on a read-only directory handle is
/// the documented Unix idiom; a filesystem that rejects it (EINVAL on
/// some network mounts) still gave us the file operation itself, so
/// that error is not propagated.
pub fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_error_display_keeps_field_prefix() {
        let e = ScenarioError::new("n_users", "must be positive");
        assert_eq!(e.to_string(), "n_users must be positive");
        let wrapped = SimError::from(e);
        assert!(wrapped.to_string().contains("n_users"));
    }

    #[test]
    fn string_conversions_compose_with_question_mark() {
        fn old_style() -> Result<(), String> {
            fn typed() -> Result<(), ScenarioError> {
                Err(ScenarioError::new("tau", "must be positive"))
            }
            typed()?;
            Ok(())
        }
        assert_eq!(
            old_style().expect_err("typed error propagates"),
            "tau must be positive"
        );
    }

    #[test]
    fn trace_error_display_names_path_and_line() {
        let io_err = TraceError::Io {
            path: PathBuf::from("/tmp/x.jsonl"),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(io_err.to_string().contains("/tmp/x.jsonl"));
        let parse = TraceError::Parse {
            line: 7,
            reason: "bad json".into(),
        };
        assert!(parse.to_string().contains('7'));
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join("jmso-atomic-write-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("out.txt");
        atomic_write(&path, b"first").expect("writes");
        assert_eq!(std::fs::read(&path).expect("reads"), b"first");
        atomic_write(&path, b"second").expect("writes");
        assert_eq!(std::fs::read(&path).expect("reads"), b"second");
        assert!(
            !path.with_extension("txt.tmp").exists(),
            "tmp sibling cleaned up by rename"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
