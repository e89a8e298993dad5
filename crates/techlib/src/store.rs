//! Keyed, content-addressed artifact store for the stage graph — the
//! one memo of the flow.
//!
//! The flow is a chain of stages (design → split → chiplet netlists →
//! chiplet reports → layout → thermal → SI links); each stage's product
//! is fully determined by a *projection* of the spec fields it actually
//! consumes plus the keys of the upstream artifacts it reads. A
//! [`StoreKey`] is a stable 128-bit hash of exactly that projection
//! (built with [`KeyHasher`]), so two scenarios differing only in a
//! *later* stage's knobs produce identical keys for the shared prefix
//! and the [`ArtifactStore`] hands both the same computed artifact.
//!
//! Every study context owns a handle to a store, so every cached
//! artifact of the flow lives here and nowhere else: a batch shares one
//! store between its clean scenarios, and a standalone context gets a
//! private one. There is no process-wide store: whoever builds a
//! context decides how long its artifacts live.
//!
//! Two tiers:
//!
//! * **Memory** — `HashMap<StoreKey, Arc<artifact>>`; hits are pointer
//!   clones. Concurrent first requests for one key serialize on a
//!   per-key mutex so the compute runs exactly once; requests for
//!   different keys proceed in parallel. [`ArtifactStore::clear`]
//!   empties this tier.
//! * **Disk** (optional) — one JSON file per key under
//!   `<dir>/v{STORE_FORMAT_VERSION}/<hex-key>.json`, written
//!   atomically (temp file + rename). Entries that fail to decode are
//!   treated as a miss and recomputed; a format-version bump moves the
//!   whole tier to a fresh subdirectory, invalidating everything at
//!   once. This is what makes `codesign serve` warm across restarts.
//!
//! The store is **success-only**: failed computes propagate their error
//! and leave both tiers untouched, so transient failures cannot poison
//! shared state. Fault-armed scenarios additionally run over a private
//! throwaway store (see `core::batch`), so an armed fault neither reads
//! a sibling's artifact nor leaves one behind. Encoding is delegated to
//! a caller-supplied [`Codec`] so this crate stays free of any JSON
//! dependency.
//!
//! Everything cached here is deterministic, so key identity implies
//! byte-identical artifacts: outputs computed through a shared store are
//! indistinguishable from those of a fresh one.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Environment variable the `codesign` CLI reads as a default on-disk
/// cache directory (equivalent to passing `--cache-dir <path>`).
pub const CACHE_DIR_ENV: &str = "CODESIGN_CACHE_DIR";

/// On-disk format version. Bump this whenever a stage's semantics, a
/// cached type's serialized shape, or the key derivation changes in a
/// way old entries must not survive — the disk tier lives under a
/// `v{N}` subdirectory, so a bump orphans every stale entry instead of
/// risking a wrong hit.
pub const STORE_FORMAT_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis for the second lane: the standard basis with the halves
/// swapped. Both lanes see the same bytes but from different starting
/// states, giving 128 effectively independent bits — plenty for cache
/// addressing (keys are not adversarial).
const FNV_OFFSET_ALT: u64 = 0x8422_2325_cbf2_9ce4;

/// Stable 128-bit stage-artifact key. Equal projections hash to equal
/// keys in every process and on every platform (the hash is hand-rolled
/// FNV-1a, not `DefaultHasher`, precisely so disk entries stay valid
/// across runs and toolchain updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    hi: u64,
    lo: u64,
}

impl StoreKey {
    /// 32-hex-digit file-name form of the key.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Builds a [`StoreKey`] from a stage's input projection.
///
/// Every ingredient is framed (name, type tag, value, separator) so
/// distinct projections cannot collide by concatenation — `("ab", "c")`
/// and `("a", "bc")` hash differently. Floats hash by bit pattern
/// ([`f64::to_bits`]), which distinguishes `-0.0` from `0.0` and keeps
/// NaN payloads stable.
#[derive(Debug)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    /// Starts a key for one named stage. `stage_version` is the stage's
    /// own algorithm version: bump it when the stage's computation
    /// changes so old artifacts (same inputs, different algorithm) miss.
    pub fn new(stage: &str, stage_version: u32) -> KeyHasher {
        let mut h = KeyHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_ALT,
        };
        h.raw(stage.as_bytes());
        h.raw(&stage_version.to_le_bytes());
        h
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        // Length-framing separator: a value never produced by to_le_bytes
        // boundaries alone, closing concatenation ambiguity.
        self.a = (self.a ^ 0xff).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ 0xff).wrapping_mul(FNV_PRIME);
    }

    fn field(&mut self, name: &str, tag: u8, value: &[u8]) {
        self.raw(name.as_bytes());
        self.raw(&[tag]);
        self.raw(value);
    }

    /// Hashes a string-valued input (enum labels, material names).
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.field(name, b's', value.as_bytes());
    }

    /// Hashes an unsigned-integer input (layer counts, levels).
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.field(name, b'u', &value.to_le_bytes());
    }

    /// Hashes a float input by bit pattern.
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.field(name, b'f', &value.to_bits().to_le_bytes());
    }

    /// Hashes a boolean input.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.field(name, b'b', &[u8::from(value)]);
    }

    /// Folds an upstream artifact's key into this stage's key, making
    /// the stage graph explicit: any change that re-keys the upstream
    /// stage re-keys every consumer downstream.
    pub fn upstream(&mut self, name: &str, key: StoreKey) {
        self.field(name, b'k', &{
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&key.hi.to_le_bytes());
            bytes[8..].copy_from_slice(&key.lo.to_le_bytes());
            bytes
        });
    }

    /// Finalizes the key.
    pub fn finish(self) -> StoreKey {
        StoreKey {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// One field of [`crate::spec::InterposerSpec`], as a value — the
/// vocabulary stage owners use to declare their input projections
/// (`pub const ..._PROJECTION: &[SpecField]`). Declaring projections as
/// data rather than ad-hoc hashing code lets the key-soundness tests
/// enumerate [`SpecField::ALL`] and assert that exactly the declared
/// fields move a stage's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecField {
    /// `kind` — the technology.
    Kind,
    /// `signal_metal_layers`.
    SignalMetalLayers,
    /// `metal_thickness_um`.
    MetalThicknessUm,
    /// `dielectric_thickness_um`.
    DielectricThicknessUm,
    /// `dielectric_constant`.
    DielectricConstant,
    /// `loss_tangent`.
    LossTangent,
    /// `min_wire_width_um`.
    MinWireWidthUm,
    /// `min_wire_space_um`.
    MinWireSpaceUm,
    /// `via_size_um`.
    ViaSizeUm,
    /// `bump_size_um`.
    BumpSizeUm,
    /// `die_to_die_spacing_um`.
    DieToDieSpacingUm,
    /// `microbump_pitch_um`.
    MicrobumpPitchUm,
    /// `stacking`.
    Stacking,
    /// `routing_style`.
    RoutingStyle,
    /// `core_thickness_um`.
    CoreThicknessUm,
}

impl SpecField {
    /// Every spec field, in declaration order.
    pub const ALL: [SpecField; 15] = [
        SpecField::Kind,
        SpecField::SignalMetalLayers,
        SpecField::MetalThicknessUm,
        SpecField::DielectricThicknessUm,
        SpecField::DielectricConstant,
        SpecField::LossTangent,
        SpecField::MinWireWidthUm,
        SpecField::MinWireSpaceUm,
        SpecField::ViaSizeUm,
        SpecField::BumpSizeUm,
        SpecField::DieToDieSpacingUm,
        SpecField::MicrobumpPitchUm,
        SpecField::Stacking,
        SpecField::RoutingStyle,
        SpecField::CoreThicknessUm,
    ];

    /// The field's name, used both in key framing and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SpecField::Kind => "kind",
            SpecField::SignalMetalLayers => "signal_metal_layers",
            SpecField::MetalThicknessUm => "metal_thickness_um",
            SpecField::DielectricThicknessUm => "dielectric_thickness_um",
            SpecField::DielectricConstant => "dielectric_constant",
            SpecField::LossTangent => "loss_tangent",
            SpecField::MinWireWidthUm => "min_wire_width_um",
            SpecField::MinWireSpaceUm => "min_wire_space_um",
            SpecField::ViaSizeUm => "via_size_um",
            SpecField::BumpSizeUm => "bump_size_um",
            SpecField::DieToDieSpacingUm => "die_to_die_spacing_um",
            SpecField::MicrobumpPitchUm => "microbump_pitch_um",
            SpecField::Stacking => "stacking",
            SpecField::RoutingStyle => "routing_style",
            SpecField::CoreThicknessUm => "core_thickness_um",
        }
    }
}

/// Hashes one spec field into a stage key. Enum fields hash by their
/// `Debug` name (stable — they are part of the public API), numerics by
/// exact bit pattern.
pub fn hash_spec_field(h: &mut KeyHasher, spec: &crate::spec::InterposerSpec, field: SpecField) {
    let name = field.name();
    match field {
        SpecField::Kind => h.field_str(name, &format!("{:?}", spec.kind)),
        SpecField::SignalMetalLayers => h.field_u64(name, spec.signal_metal_layers as u64),
        SpecField::MetalThicknessUm => h.field_f64(name, spec.metal_thickness_um),
        SpecField::DielectricThicknessUm => h.field_f64(name, spec.dielectric_thickness_um),
        SpecField::DielectricConstant => h.field_f64(name, spec.dielectric_constant),
        SpecField::LossTangent => h.field_f64(name, spec.loss_tangent),
        SpecField::MinWireWidthUm => h.field_f64(name, spec.min_wire_width_um),
        SpecField::MinWireSpaceUm => h.field_f64(name, spec.min_wire_space_um),
        SpecField::ViaSizeUm => h.field_f64(name, spec.via_size_um),
        SpecField::BumpSizeUm => h.field_f64(name, spec.bump_size_um),
        SpecField::DieToDieSpacingUm => h.field_f64(name, spec.die_to_die_spacing_um),
        SpecField::MicrobumpPitchUm => h.field_f64(name, spec.microbump_pitch_um),
        SpecField::Stacking => h.field_str(name, &format!("{:?}", spec.stacking)),
        SpecField::RoutingStyle => h.field_str(name, &format!("{:?}", spec.routing_style)),
        SpecField::CoreThicknessUm => h.field_f64(name, spec.core_thickness_um),
    }
}

/// Builds a stage key from a declared projection: the stage name and
/// version, the projected spec fields, then any upstream artifact keys.
pub fn projection_key(
    stage: &str,
    stage_version: u32,
    spec: &crate::spec::InterposerSpec,
    projection: &[SpecField],
    upstream: &[(&str, StoreKey)],
) -> StoreKey {
    let mut h = KeyHasher::new(stage, stage_version);
    for &field in projection {
        hash_spec_field(&mut h, spec, field);
    }
    for &(name, key) in upstream {
        h.upstream(name, key);
    }
    h.finish()
}

/// Where a [`ArtifactStore::get_or_compute`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Pointer-shared from the in-memory tier.
    MemHit,
    /// Decoded from the on-disk tier (now also in memory).
    DiskHit,
    /// The compute closure ran.
    Computed,
}

/// Serialization bridge for the disk tier, supplied by the crate that
/// owns the artifact type (this crate carries no JSON dependency).
/// `encode` returning `None` (e.g. a non-finite float that would not
/// round-trip) skips the disk write; `decode` returning `None` marks the
/// entry corrupt, which the store treats as a miss.
pub struct Codec<T> {
    /// Artifact → durable text.
    pub encode: fn(&T) -> Option<String>,
    /// Durable text → artifact.
    pub decode: fn(&str) -> Option<T>,
}

/// Point-in-time totals of the store's activity. Unlike the global
/// [`crate::obs`] counters these are always on and per-store, so the
/// serve `/stats` endpoint reports its own pool's store without
/// enabling tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Hits served from memory.
    pub mem_hits: u64,
    /// Hits decoded from disk.
    pub disk_hits: u64,
    /// Misses (compute ran, successfully or not).
    pub misses: u64,
    /// Successful disk writes.
    pub writes: u64,
    /// Disk entries discarded as corrupt/undecodable.
    pub invalid: u64,
}

#[derive(Default)]
struct Counters {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    invalid: AtomicU64,
}

type AnyArc = Arc<dyn Any + Send + Sync>;
type Slot = Arc<Mutex<Option<AnyArc>>>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The two-tier artifact store. See the module docs for the contract.
pub struct ArtifactStore {
    slots: Mutex<HashMap<StoreKey, Slot>>,
    disk: Option<PathBuf>,
    counters: Counters,
}

impl ArtifactStore {
    /// A store with only the in-memory tier.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore {
            slots: Mutex::new(HashMap::new()),
            disk: None,
            counters: Counters::default(),
        }
    }

    /// A store backed by `dir`. Entries land under the format-versioned
    /// subdirectory, which is created eagerly so permission problems
    /// surface here rather than as silent cache misses later.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the directory cannot be created.
    pub fn with_disk(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root: PathBuf = dir.into();
        let tier = root.join(format!("v{STORE_FORMAT_VERSION}"));
        std::fs::create_dir_all(&tier)?;
        Ok(ArtifactStore {
            slots: Mutex::new(HashMap::new()),
            disk: Some(tier),
            counters: Counters::default(),
        })
    }

    /// Empties the memory tier, so the next request for any key reads
    /// the disk tier (when there is one) or recomputes. Outstanding
    /// [`Arc`] handles stay valid on their own; a compute in flight
    /// finishes into a slot the store no longer holds.
    pub fn clear(&self) {
        lock(&self.slots).clear();
    }

    /// The versioned on-disk tier directory, when one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Current activity totals.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.counters.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            invalid: self.counters.invalid.load(Ordering::Relaxed),
        }
    }

    fn slot(&self, key: StoreKey) -> Slot {
        Arc::clone(
            lock(&self.slots)
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(None))),
        )
    }

    fn path_for(&self, key: StoreKey) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|dir| dir.join(format!("{}.json", key.hex())))
    }

    /// Returns the artifact for `key`, computing it at most once per
    /// store (and at most once per `--cache-dir` lifetime when the disk
    /// tier holds it). Concurrent calls for the same key block on a
    /// per-key mutex while one of them computes; calls for different
    /// keys proceed in parallel. `compute` must not re-enter the store
    /// with the same key.
    ///
    /// # Errors
    ///
    /// Propagates the compute error; neither tier is touched on failure.
    pub fn get_or_compute<T, E>(
        &self,
        key: StoreKey,
        codec: &Codec<T>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Provenance), E>
    where
        T: Send + Sync + 'static,
    {
        let slot = self.slot(key);
        let mut guard = lock(&slot);
        if let Some(cached) = guard.as_ref() {
            if let Ok(typed) = Arc::clone(cached).downcast::<T>() {
                self.bump(&self.counters.mem_hits, crate::obs::STORE_MEM_HIT);
                return Ok((typed, Provenance::MemHit));
            }
            // A different type under the same key can only mean a key
            // collision across stages; drop the entry and recompute.
            *guard = None;
            self.bump(&self.counters.invalid, crate::obs::STORE_INVALID);
        }
        if let Some(path) = self.path_for(key) {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    if let Some(value) = (codec.decode)(&text) {
                        let value = Arc::new(value);
                        *guard = Some(Arc::clone(&value) as AnyArc);
                        self.bump(&self.counters.disk_hits, crate::obs::STORE_DISK_HIT);
                        return Ok((value, Provenance::DiskHit));
                    }
                    self.bump(&self.counters.invalid, crate::obs::STORE_INVALID);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(_) => self.bump(&self.counters.invalid, crate::obs::STORE_INVALID),
            }
        }
        self.bump(&self.counters.misses, crate::obs::STORE_MISS);
        let value = Arc::new(compute()?);
        *guard = Some(Arc::clone(&value) as AnyArc);
        if let Some(path) = self.path_for(key) {
            if let Some(text) = (codec.encode)(&value) {
                if write_atomic(&path, &text).is_ok() {
                    self.bump(&self.counters.writes, crate::obs::STORE_WRITE);
                }
            }
        }
        Ok((value, Provenance::Computed))
    }

    fn bump(&self, own: &AtomicU64, obs: crate::obs::Counter) {
        own.fetch_add(1, Ordering::Relaxed);
        crate::obs::add(obs, 1);
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("disk", &self.disk)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Writes `text` to `path` via a sibling temp file and an atomic rename,
/// so a concurrent reader (another sweep sharing the cache directory)
/// never observes a half-written entry.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn u64_codec() -> Codec<u64> {
        Codec {
            encode: |v| Some(v.to_string()),
            decode: |s| s.parse().ok(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("techlib_store_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(stage: &str, x: f64) -> StoreKey {
        let mut h = KeyHasher::new(stage, 1);
        h.field_f64("x", x);
        h.finish()
    }

    #[test]
    fn keys_are_stable_and_projection_sensitive() {
        // Stability: the exact digest is pinned so a refactor that
        // silently changes key derivation (and would orphan every disk
        // cache) fails loudly here.
        assert_eq!(key("layout", 1.5), key("layout", 1.5));
        assert_eq!(key("layout", 1.5).hex(), "5c9809f9ee469296ae29c55bcd909531");
        assert_ne!(key("layout", 1.5), key("layout", 2.5));
        assert_ne!(key("layout", 1.5), key("thermal", 1.5));
        assert_ne!(
            KeyHasher::new("layout", 1).finish(),
            KeyHasher::new("layout", 2).finish(),
            "stage version participates"
        );
        // -0.0 and 0.0 are different inputs (bit-pattern hashing).
        assert_ne!(key("layout", 0.0), key("layout", -0.0));
    }

    #[test]
    fn field_framing_prevents_concatenation_collisions() {
        let mut a = KeyHasher::new("s", 1);
        a.field_str("ab", "c");
        let mut b = KeyHasher::new("s", 1);
        b.field_str("a", "bc");
        assert_ne!(a.finish(), b.finish());

        let mut a = KeyHasher::new("s", 1);
        a.field_u64("n", 1);
        a.field_u64("m", 2);
        let mut b = KeyHasher::new("s", 1);
        b.field_u64("n", 2);
        b.field_u64("m", 1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn upstream_keys_cascade() {
        let up_a = key("split", 1.0);
        let up_b = key("split", 2.0);
        let downstream = |up: StoreKey| {
            let mut h = KeyHasher::new("reports", 1);
            h.upstream("netlists", up);
            h.finish()
        };
        assert_ne!(downstream(up_a), downstream(up_b));
    }

    #[test]
    fn memory_tier_computes_once_and_shares_pointers() {
        let store = ArtifactStore::in_memory();
        let calls = AtomicUsize::new(0);
        let get = || {
            store.get_or_compute(key("s", 1.0), &u64_codec(), || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>(7)
            })
        };
        let (first, p1) = get().unwrap();
        let (second, p2) = get().unwrap();
        assert_eq!((*first, p1), (7, Provenance::Computed));
        assert_eq!((*second, p2), (7, Provenance::MemHit));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.mem_hits, stats.writes), (1, 1, 0));
    }

    #[test]
    fn clear_empties_the_memory_tier_only() {
        let dir = temp_dir("clear");
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let k = key("s", 5.0);
        let (first, _) = store
            .get_or_compute(k, &u64_codec(), || Ok::<_, ()>(3))
            .unwrap();
        store.clear();
        let (again, p) = store
            .get_or_compute(k, &u64_codec(), || Err::<u64, _>("must not recompute"))
            .unwrap();
        assert_eq!((*again, p), (3, Provenance::DiskHit), "disk tier kept");
        assert_eq!(*first, 3, "old handles stay valid");

        let memory = ArtifactStore::in_memory();
        memory
            .get_or_compute(k, &u64_codec(), || Ok::<_, ()>(4))
            .unwrap();
        memory.clear();
        let (_, p) = memory
            .get_or_compute(k, &u64_codec(), || Ok::<_, ()>(4))
            .unwrap();
        assert_eq!(p, Provenance::Computed, "memory tier emptied");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_touch_neither_tier() {
        let dir = temp_dir("errors");
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let k = key("s", 1.0);
        let err = store
            .get_or_compute(k, &u64_codec(), || Err::<u64, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        let (v, p) = store
            .get_or_compute(k, &u64_codec(), || Ok::<_, &str>(9))
            .unwrap();
        assert_eq!((*v, p), (9, Provenance::Computed), "error was not cached");
        assert_eq!(store.stats().misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_survives_a_new_store_instance() {
        let dir = temp_dir("persist");
        let k = key("s", 4.0);
        let first = ArtifactStore::with_disk(&dir).unwrap();
        let (_, p) = first
            .get_or_compute(k, &u64_codec(), || Ok::<_, ()>(11))
            .unwrap();
        assert_eq!(p, Provenance::Computed);
        assert_eq!(first.stats().writes, 1);

        // "Restart": a fresh store over the same directory.
        let second = ArtifactStore::with_disk(&dir).unwrap();
        let (v, p) = second
            .get_or_compute(k, &u64_codec(), || Err::<u64, _>("must not recompute"))
            .unwrap();
        assert_eq!((*v, p), (11, Provenance::DiskHit));
        // And the decoded value is now memory-resident.
        let (_, p) = second
            .get_or_compute(k, &u64_codec(), || Ok::<_, &str>(0))
            .unwrap();
        assert_eq!(p, Provenance::MemHit);

        // No temp files left behind by the atomic writes.
        let leftovers: Vec<_> = std::fs::read_dir(second.disk_dir().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_none_or(|x| x != "json"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_miss_and_heal() {
        let dir = temp_dir("corrupt");
        let k = key("s", 8.0);
        {
            let store = ArtifactStore::with_disk(&dir).unwrap();
            store
                .get_or_compute(k, &u64_codec(), || Ok::<_, ()>(13))
                .unwrap();
        }
        // Corrupt the entry on disk.
        let path = dir
            .join(format!("v{STORE_FORMAT_VERSION}"))
            .join(format!("{}.json", k.hex()));
        std::fs::write(&path, "not a number").unwrap();

        let store = ArtifactStore::with_disk(&dir).unwrap();
        let (v, p) = store
            .get_or_compute(k, &u64_codec(), || Ok::<_, ()>(13))
            .unwrap();
        assert_eq!((*v, p), (13, Provenance::Computed));
        assert_eq!(store.stats().invalid, 1);
        assert_eq!(store.stats().writes, 1, "healed entry rewritten");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "13",
            "corrupt entry replaced"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_orphans_old_entries() {
        let dir = temp_dir("version");
        {
            let store = ArtifactStore::with_disk(&dir).unwrap();
            store
                .get_or_compute(key("s", 2.0), &u64_codec(), || Ok::<_, ()>(5))
                .unwrap();
        }
        // A store opened at a hypothetical older version's directory
        // layout never sees the v{current} entries and vice versa: the
        // tiers are disjoint subdirectories.
        let stale = dir.join("v0");
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::write(stale.join("deadbeef.json"), "99").unwrap();
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let (v, p) = store
            .get_or_compute(key("s", 3.0), &u64_codec(), || Ok::<_, ()>(6))
            .unwrap();
        assert_eq!((*v, p), (6, Provenance::Computed));
        assert!(store
            .disk_dir()
            .unwrap()
            .ends_with(format!("v{STORE_FORMAT_VERSION}")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_requests_compute_once() {
        let store = ArtifactStore::in_memory();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = store
                        .get_or_compute(key("s", 6.0), &u64_codec(), || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok::<_, ()>(21)
                        })
                        .unwrap();
                    assert_eq!(*v, 21);
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.mem_hits), (1, 7));
    }
}
