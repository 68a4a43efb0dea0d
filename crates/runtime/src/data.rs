//! Data registry and versioning.
//!
//! Every piece of data flowing through a workflow (a dataset block, a
//! partial result, the K-means centers) is registered once and identified
//! by a [`DataId`]. Writes bump the version, so a value at a point in time
//! is a `dNvM` pair exactly as in PyCOMPSs DAG dumps (Fig. 6 of the
//! paper). The workflow builder tracks each object's version, last writer
//! and readers while tasks are submitted, derives RAW/WAW/WAR dependencies
//! from them, and drops that state when it builds the workflow: the
//! registry a built workflow keeps is read-only.

use std::fmt;

/// Identifier of a registered data object (`dN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u32);

/// A specific version of a data object (`dNvM`), the unit of caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataVersion {
    /// The object.
    pub id: DataId,
    /// Version number; 0 is the initial (on-storage) version.
    pub version: u32,
}

impl fmt::Display for DataVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}v{}", self.id.0, self.version)
    }
}

/// How a task accesses a parameter (the PyCOMPSs parameter directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Read-only.
    In,
    /// Write-only (creates a new version).
    Out,
    /// Read-modify-write.
    InOut,
}

impl Direction {
    /// Does this access read the current version?
    pub fn reads(self) -> bool {
        matches!(self, Direction::In | Direction::InOut)
    }

    /// Does this access produce a new version?
    pub fn writes(self) -> bool {
        matches!(self, Direction::Out | Direction::InOut)
    }
}

/// One registered data object.
#[derive(Debug, Clone)]
pub struct DataObject {
    /// Identifier.
    pub id: DataId,
    /// Debug name (e.g. `"A[2,3]"`).
    pub name: String,
    /// Payload size in bytes (assumed stable across versions).
    pub bytes: u64,
    /// Whether version 0 exists on storage before the run (input dataset
    /// blocks) — data without this flag must be written before being read.
    pub initial: bool,
}

/// The registry of all data objects of one workflow. Only the workflow
/// builder registers objects.
#[derive(Debug, Clone, Default)]
pub struct DataRegistry {
    objects: Vec<DataObject>,
}

impl DataRegistry {
    /// Registers an object; `initial` marks one whose version 0 already
    /// exists on storage (a dataset block).
    pub(crate) fn register(&mut self, name: String, bytes: u64, initial: bool) -> DataId {
        let id = DataId(self.objects.len() as u32);
        self.objects.push(DataObject {
            id,
            name,
            bytes,
            initial,
        });
        id
    }

    /// The object behind `id`.
    ///
    /// # Panics
    /// Panics on an unknown id (ids are never exposed before creation).
    pub fn object(&self, id: DataId) -> &DataObject {
        &self.objects[id.0 as usize]
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates all objects.
    pub fn iter(&self) -> impl Iterator<Item = &DataObject> {
        self.objects.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_data_object_holds_no_builder_state() {
        assert_eq!(std::mem::size_of::<DataObject>(), 40);
    }

    #[test]
    fn data_version_displays_like_pycompss() {
        let v = DataVersion {
            id: DataId(3),
            version: 1,
        };
        assert_eq!(v.to_string(), "d3v1");
    }

    #[test]
    fn direction_predicates() {
        assert!(Direction::In.reads() && !Direction::In.writes());
        assert!(!Direction::Out.reads() && Direction::Out.writes());
        assert!(Direction::InOut.reads() && Direction::InOut.writes());
    }
}
