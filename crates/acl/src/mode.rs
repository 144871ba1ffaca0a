//! Action modes (read, write, …).
//!
//! The paper presents DOL for a single mode and notes the approach extends to
//! multiple action modes "in a similar way \[as\] for multiple users" (§2). The
//! engine treats modes as an outer dimension: one accessibility map / DOL per
//! mode (the LiveLink experiments use ten modes).

/// A dense identifier of an action mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModeId(pub u8);

impl ModeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ModeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The registry of action modes.
#[derive(Debug, Default, Clone)]
pub struct ModeCatalog {
    names: Vec<String>,
}

impl ModeCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog with the two classic modes, `read` (id 0) and `write` (id 1).
    pub fn read_write() -> Self {
        let mut c = Self::new();
        c.add("read");
        c.add("write");
        c
    }

    /// Registers a mode.
    pub fn add(&mut self, name: &str) -> ModeId {
        assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate mode `{name}`"
        );
        let id = ModeId(u8::try_from(self.names.len()).expect("more than 255 modes"));
        self.names.push(name.to_owned());
        id
    }

    /// Looks a mode up by name.
    pub fn get(&self, name: &str) -> Option<ModeId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| ModeId(i as u8))
    }

    /// The name of a mode.
    pub fn name(&self, id: ModeId) -> &str {
        &self.names[id.index()]
    }

    /// Number of modes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no mode is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates all mode ids.
    pub fn iter(&self) -> impl Iterator<Item = ModeId> {
        (0..self.names.len() as u8).map(ModeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_catalog() {
        let c = ModeCatalog::read_write();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("read"), Some(ModeId(0)));
        assert_eq!(c.get("write"), Some(ModeId(1)));
        assert_eq!(c.name(ModeId(1)), "write");
        assert_eq!(c.get("execute"), None);
    }

    #[test]
    fn ten_livelink_style_modes() {
        let mut c = ModeCatalog::new();
        for i in 0..10 {
            c.add(&format!("mode{i}"));
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.iter().count(), 10);
    }

    #[test]
    #[should_panic(expected = "duplicate mode")]
    fn duplicates_rejected() {
        let mut c = ModeCatalog::new();
        c.add("read");
        c.add("read");
    }
}
