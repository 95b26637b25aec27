//! Thread-safe store of interned program templates.
//!
//! The sweep's hot path builds the same collective shape at many message
//! sizes. A [`TemplateStore`] interns one [`ProgramTemplate`] per
//! stack-provided key ([`MpiStack::template_key`]) and serves subsequent
//! sizes by affine re-stamping instead of a cold DAG build.
//!
//! Entry lifecycle: the first build under a key is stored as a *probe*;
//! the second (at a distinct size) attempts [`ProgramTemplate::learn`] —
//! exact structural equality plus exact integer slopes — and the entry
//! becomes *ready* on success or *unshareable* (permanent cold-build
//! fallback) on failure. In debug builds, the first specialization from
//! every ready template is additionally verified bit-identical against a
//! cold build. Cold builds always happen outside the store lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use han_machine::{Machine, MachinePreset};
use han_mpi::{execute, ExecOpts, Program, ProgramTemplate};
use han_sim::Time;

use crate::stack::{build_coll, Coll, MpiStack, Unsupported};

#[derive(Debug)]
enum Entry {
    /// One cold build seen; waiting for a second distinct size to learn.
    Probe { m: u64, prog: Arc<Program> },
    /// Learned template; `verified` is set once a debug-build cross-check
    /// against a cold build has run.
    Ready {
        tpl: Arc<ProgramTemplate>,
        verified: bool,
    },
    /// Learning failed (shape or non-affine scalar mismatch): this key
    /// permanently falls back to cold builds.
    Unshareable,
}

/// Cumulative store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Builds served by template specialization.
    pub hits: u64,
    /// Cold builds (probes, learning builds, unshareable/untemplated
    /// fallbacks).
    pub misses: u64,
}

/// A thread-safe map from template keys to interned program templates.
#[derive(Debug, Default)]
pub struct TemplateStore {
    map: Mutex<HashMap<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

enum Plan {
    Specialize {
        tpl: Arc<ProgramTemplate>,
        verify: bool,
    },
    Learn {
        m1: u64,
        p1: Arc<Program>,
    },
    Probe,
    Cold,
}

impl TemplateStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build `coll` at `bytes` through the template store: a cold
    /// `build_coll` on the first sightings of a key, an affine
    /// re-specialization afterwards — bit-identical either way.
    pub fn build(
        &self,
        stack: &dyn MpiStack,
        preset: &MachinePreset,
        coll: Coll,
        bytes: u64,
        root: usize,
    ) -> Result<Program, Unsupported> {
        let mut out = Program::default();
        self.build_into(stack, preset, coll, bytes, root, &mut out)?;
        Ok(out)
    }

    /// [`Self::build`] into a caller-owned scratch program. On the
    /// specialization fast path this copies the template's flat arrays
    /// and re-stamps their scalars, with no DAG construction. The
    /// scratch's prior contents are irrelevant.
    ///
    /// Returns the stack's template key for this build (`None` when the
    /// stack declines templating, in which case the program was
    /// cold-built).
    pub fn build_into(
        &self,
        stack: &dyn MpiStack,
        preset: &MachinePreset,
        coll: Coll,
        bytes: u64,
        root: usize,
        out: &mut Program,
    ) -> Result<Option<u64>, Unsupported> {
        let Some(key) = stack.template_key(preset, coll, bytes, root) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            *out = build_coll(stack, preset, coll, bytes, root)?;
            return Ok(None);
        };
        let plan = {
            let mut map = self.map.lock().unwrap();
            match map.get_mut(&key) {
                Some(Entry::Ready { tpl, verified }) => {
                    let verify = cfg!(debug_assertions) && !*verified;
                    *verified = true;
                    Plan::Specialize {
                        tpl: Arc::clone(tpl),
                        verify,
                    }
                }
                Some(Entry::Unshareable) => Plan::Cold,
                Some(Entry::Probe { m, prog }) => {
                    if *m == bytes {
                        // Same size as the stored probe: its program *is*
                        // the cold-build result.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        out.clone_from(prog);
                        return Ok(Some(key));
                    }
                    Plan::Learn {
                        m1: *m,
                        p1: Arc::clone(prog),
                    }
                }
                None => Plan::Probe,
            }
        };
        match plan {
            Plan::Specialize { tpl, verify } => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tpl.specialize_into(bytes, out);
                if verify {
                    let cold = build_coll(stack, preset, coll, bytes, root)?;
                    assert_eq!(
                        *out,
                        cold,
                        "template specialization diverged from cold build \
                         ({} {} bytes={bytes} root={root})",
                        stack.name(),
                        coll.name()
                    );
                }
                Ok(Some(key))
            }
            Plan::Cold => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                *out = build_coll(stack, preset, coll, bytes, root)?;
                Ok(Some(key))
            }
            Plan::Probe => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let prog = Arc::new(build_coll(stack, preset, coll, bytes, root)?);
                let mut map = self.map.lock().unwrap();
                map.entry(key).or_insert_with(|| Entry::Probe {
                    m: bytes,
                    prog: Arc::clone(&prog),
                });
                drop(map);
                out.clone_from(&prog);
                Ok(Some(key))
            }
            Plan::Learn { m1, p1 } => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let prog = build_coll(stack, preset, coll, bytes, root)?;
                let entry = match ProgramTemplate::learn(m1, &p1, bytes, &prog) {
                    Some(tpl) => Entry::Ready {
                        tpl: Arc::new(tpl),
                        verified: false,
                    },
                    None => Entry::Unshareable,
                };
                self.map.lock().unwrap().insert(key, entry);
                *out = prog;
                Ok(Some(key))
            }
        }
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> TemplateStats {
        TemplateStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`crate::stack::time_coll_on`], but acquiring the program through a
/// template store. `scratch` is reused across calls (see
/// [`TemplateStore::build_into`]) — pass one per worker.
#[allow(clippy::too_many_arguments)]
pub fn time_coll_templated(
    stack: &dyn MpiStack,
    store: &TemplateStore,
    machine: &mut Machine,
    preset: &MachinePreset,
    coll: Coll,
    bytes: u64,
    root: usize,
    scratch: &mut Program,
) -> Result<Time, Unsupported> {
    store.build_into(stack, preset, coll, bytes, root, scratch)?;
    let opts = ExecOpts::timing(stack.flavor().p2p());
    Ok(execute(machine, scratch, &opts).makespan)
}
