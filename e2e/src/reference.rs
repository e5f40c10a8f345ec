//! The correctness oracle: what every run modeled at a known-good
//! commit, kept bit for bit.
//!
//! Entries are grouped into sets, one per (mode, workload, seed). Many
//! apps draw data-dependent command counts from their seeded inputs, so
//! a set only covers its own seed; `--bless` adds or replaces the sets
//! of one seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pimeval::trace::json::Json;

use crate::report::{obj, read_json, render_pretty};
use crate::workload::Modeled;

/// One run's modeled result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    verified: bool,
    cmds: u64,
    time_bits: u64,
    energy_bits: u64,
}

impl Entry {
    /// The entry a run produced.
    pub fn of(m: &Modeled) -> Entry {
        Entry {
            verified: m.verified,
            cmds: m.cmds,
            time_bits: m.time_ms.to_bits(),
            energy_bits: m.energy_mj.to_bits(),
        }
    }

    /// True when the app verified its outputs.
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// `[verified, cmds, "<total_time_ms bits>", "<energy bits>"]`.
    pub fn to_json(self) -> Json {
        Json::Arr(vec![
            Json::Bool(self.verified),
            Json::Num(self.cmds as f64),
            Json::Str(format!("{:016x}", self.time_bits)),
            Json::Str(format!("{:016x}", self.energy_bits)),
        ])
    }

    /// Parses [`Entry::to_json`]'s form.
    pub fn from_json(v: &Json) -> Option<Entry> {
        let [verified, cmds, time, energy] = v.as_array()? else {
            return None;
        };
        let bits = |j: &Json| u64::from_str_radix(j.as_str()?, 16).ok();
        Some(Entry {
            verified: matches!(verified, Json::Bool(true)),
            cmds: cmds.as_f64()? as u64,
            time_bits: bits(time)?,
            energy_bits: bits(energy)?,
        })
    }

    /// What differs from `want`, or `None` if nothing does.
    pub fn mismatch(&self, want: &Entry) -> Option<String> {
        if self == want {
            return None;
        }
        Some(format!(
            "modeled {} cmds, {} ms, {} mJ; reference {} cmds, {} ms, {} mJ",
            self.cmds,
            f64::from_bits(self.time_bits),
            f64::from_bits(self.energy_bits),
            want.cmds,
            f64::from_bits(want.time_bits),
            f64::from_bits(want.energy_bits),
        ))
    }
}

/// The entries of one set, keyed `<target>/<app>`.
pub type Set = BTreeMap<String, Entry>;

/// The name of the set for a mode (`full` or `smoke`), workload and
/// seed.
pub fn set_name(smoke: bool, workload: &str, seed: u64) -> String {
    let mode = if smoke { "smoke" } else { "full" };
    format!("{mode}/{workload}/{seed}")
}

/// The reference file.
#[derive(Debug)]
pub struct Reference {
    path: PathBuf,
    sets: BTreeMap<String, Set>,
}

impl Reference {
    /// Loads `path`; a missing file is an empty reference.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let mut sets = BTreeMap::new();
        if path.exists() {
            let doc = read_json(path)?;
            let all = doc
                .get("sets")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("{}: no \"sets\" object", path.display()))?;
            for (name, set) in all {
                let entries = set
                    .as_object()
                    .ok_or_else(|| format!("{}: set {name} is not an object", path.display()))?;
                let parsed = entries
                    .iter()
                    .map(|(k, v)| {
                        Entry::from_json(v)
                            .map(|e| (k.clone(), e))
                            .ok_or_else(|| format!("{}: bad entry {name}/{k}", path.display()))
                    })
                    .collect::<Result<Set, String>>()?;
                sets.insert(name.clone(), parsed);
            }
        }
        Ok(Reference {
            path: path.to_path_buf(),
            sets,
        })
    }

    /// The set `name`, if blessed.
    pub fn set(&self, name: &str) -> Option<&Set> {
        self.sets.get(name)
    }

    /// Adds or replaces the set `name`.
    pub fn bless(&mut self, name: String, set: Set) {
        self.sets.insert(name, set);
    }

    /// Writes the file back, one entry per line.
    pub fn save(&self) -> std::io::Result<()> {
        let sets = self.sets.iter().map(|(name, set)| {
            let entries = set.iter().map(|(k, e)| (k.clone(), e.to_json()));
            (name.clone(), obj(entries))
        });
        let doc = obj([("schema", Json::Num(1.0)), ("sets", obj(sets))]);
        std::fs::write(&self.path, render_pretty(&doc, 3))
    }
}
