//! Database error types.

use biscuit_core::BiscuitError;
use biscuit_fs::FsError;

/// Errors surfaced by the mini DB engine.
#[derive(Debug)]
pub enum DbError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name.
    UnknownTable(String),
    /// No column with this name.
    UnknownColumn(String),
    /// A row failed to parse from its on-flash text form.
    CorruptRow {
        /// Table involved.
        table: String,
        /// Offending line.
        line: String,
    },
    /// An expression was applied to incompatible values.
    TypeError(String),
    /// A row did not fit in one page.
    RowTooLarge {
        /// Serialized size.
        bytes: usize,
        /// Page size.
        page_size: usize,
    },
    /// Filesystem failure.
    Fs(FsError),
    /// Framework failure during offload.
    Biscuit(BiscuitError),
    /// The query shape is not supported by this executor: a spec with no
    /// scans, or a join edge naming a scan the spec lacks (or one twice).
    Unsupported(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            DbError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DbError::CorruptRow { table, line } => {
                write!(f, "corrupt row in table {table}: {line:?}")
            }
            DbError::TypeError(msg) => write!(f, "type error: {msg}"),
            DbError::RowTooLarge { bytes, page_size } => {
                write!(f, "row of {bytes} bytes exceeds page size {page_size}")
            }
            DbError::Fs(e) => write!(f, "filesystem: {e}"),
            DbError::Biscuit(e) => write!(f, "framework: {e}"),
            DbError::Unsupported(msg) => write!(f, "unsupported query shape: {msg}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Fs(e) => Some(e),
            DbError::Biscuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for DbError {
    fn from(e: FsError) -> Self {
        DbError::Fs(e)
    }
}

impl From<BiscuitError> for DbError {
    fn from(e: BiscuitError) -> Self {
        DbError::Biscuit(e)
    }
}

/// Result alias for DB operations.
pub type DbResult<T> = Result<T, DbError>;
