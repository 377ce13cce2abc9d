//! SIMD backend selection for the SpMV kernels.
//!
//! The sliced kernel (see [`crate::kernel`]) comes in up to three
//! *backends*: the mandatory scalar loops, and — behind the `simd` cargo
//! feature on `x86_64` — explicit-intrinsics variants (SSE2 and AVX2); the
//! generic and short-row kernels always run scalar. The backend changes
//! **how** a row's products are computed (vector gathers, lane-parallel
//! multiplies), never **what** is accumulated or in which order: each
//! vector lane is a whole independent row that accumulates its products in
//! CSR index order with the same rounding steps as the scalar loop, so
//! results stay bitwise identical to the serial product and the `--stable`
//! determinism contract holds across backends and machines.
//!
//! ## Dispatch
//!
//! [`detected`] probes the CPU **once per process** (memoized in an atomic;
//! the probe itself is cheap but the memo makes the policy auditable) and
//! returns the widest backend the hardware supports. [`resolve`] clamps a
//! requested [`BackendChoice`] to that: forcing `avx2` on a machine without
//! AVX2 degrades to the widest available backend, never to undefined
//! behavior. On non-`x86_64` targets — or without the `simd` feature — the
//! probe reports [`Backend::Scalar`] and every choice resolves to scalar,
//! so the feature gate compiles (and runs) cleanly everywhere.

use std::sync::atomic::{AtomicU8, Ordering};

/// A user-facing backend selection: automatic, or one forced backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Use the widest backend the CPU supports (the default).
    #[default]
    Auto,
    /// Force the scalar loops.
    Scalar,
    /// Cap at the SSE2 variants (scalar where the CPU lacks even SSE2 —
    /// impossible on `x86_64`, where SSE2 is baseline).
    Sse2,
    /// Cap at the AVX2 variants.
    Avx2,
}

impl BackendChoice {
    /// Parses the CLI/spec spelling (`auto`, `scalar`, `sse2`, `avx2`).
    pub fn parse(s: &str) -> Result<BackendChoice, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "scalar" => Ok(BackendChoice::Scalar),
            "sse2" => Ok(BackendChoice::Sse2),
            "avx2" => Ok(BackendChoice::Avx2),
            other => Err(format!(
                "unknown backend {other:?} (expected auto/scalar/sse2/avx2)"
            )),
        }
    }
}

/// A resolved kernel backend. Ordered: `Scalar < Sse2 < Avx2` (wider is
/// greater), which is what lets [`resolve`] clamp a request to the
/// hardware with `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// The scalar reference loops (always available).
    Scalar,
    /// 128-bit SSE2 variants (x86_64 baseline).
    Sse2,
    /// 256-bit AVX2 variants (runtime-detected).
    Avx2,
}

impl Backend {
    /// Stable name used in reports, CSVs and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Memo for [`detected`]: `0` = not probed yet, otherwise `backend + 1`.
static DETECTED: AtomicU8 = AtomicU8::new(0);

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn probe() -> Backend {
    if std::arch::is_x86_feature_detected!("avx2") {
        Backend::Avx2
    } else {
        // SSE2 is part of the x86_64 baseline — no probe needed.
        Backend::Sse2
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn probe() -> Backend {
    Backend::Scalar
}

/// The widest backend this process can run, probed once and memoized.
/// Scalar when the `simd` feature is off or the target is not `x86_64`.
pub fn detected() -> Backend {
    match DETECTED.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Sse2,
        3 => Backend::Avx2,
        _ => {
            let probed = probe();
            // Racing first callers probe redundantly but agree (CPUID is
            // stable for the process lifetime), so plain stores suffice.
            DETECTED.store(probed as u8 + 1, Ordering::Relaxed);
            probed
        }
    }
}

/// Resolves a requested backend against the hardware: `Auto` takes
/// [`detected`]; a forced backend is clamped to it (`min`), so a request
/// can only narrow what runs, never select an unsupported instruction set.
pub fn resolve(choice: BackendChoice) -> Backend {
    let ceiling = detected();
    match choice {
        BackendChoice::Auto => ceiling,
        BackendChoice::Scalar => Backend::Scalar,
        BackendChoice::Sse2 => Backend::Sse2.min(ceiling),
        BackendChoice::Avx2 => Backend::Avx2.min(ceiling),
    }
}

/// Every backend [`resolve`] can return in this process, narrowest first —
/// what ablation harnesses iterate. Always starts with `Scalar`.
pub fn available() -> Vec<Backend> {
    let mut all = vec![Backend::Scalar];
    if detected() >= Backend::Sse2 {
        all.push(Backend::Sse2);
    }
    if detected() >= Backend::Avx2 {
        all.push(Backend::Avx2);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_memoized_and_consistent() {
        let first = detected();
        for _ in 0..3 {
            assert_eq!(detected(), first, "per-process probe must be stable");
        }
        assert_ne!(DETECTED.load(Ordering::Relaxed), 0, "probe must memoize");
        // The memo round-trips the probed value.
        assert_eq!(DETECTED.load(Ordering::Relaxed), first as u8 + 1);
    }

    /// The feature gate must be inert off `x86_64` (and without the
    /// feature): everything resolves to scalar, so cross-compilation can
    /// never pick up an instruction set the target lacks.
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    #[test]
    fn non_simd_builds_resolve_everything_to_scalar() {
        assert_eq!(detected(), Backend::Scalar);
        for choice in [
            BackendChoice::Auto,
            BackendChoice::Scalar,
            BackendChoice::Sse2,
            BackendChoice::Avx2,
        ] {
            assert_eq!(resolve(choice), Backend::Scalar);
        }
        assert_eq!(available(), vec![Backend::Scalar]);
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn simd_builds_detect_at_least_sse2() {
        assert!(detected() >= Backend::Sse2, "SSE2 is the x86_64 baseline");
        assert_eq!(resolve(BackendChoice::Scalar), Backend::Scalar);
        assert_eq!(resolve(BackendChoice::Sse2), Backend::Sse2);
        // Forced AVX2 resolves to AVX2 exactly when the CPU has it.
        let resolved = resolve(BackendChoice::Avx2);
        assert_eq!(resolved, detected().min(Backend::Avx2));
        assert!(available().len() >= 2);
    }

    #[test]
    fn resolve_is_monotone_in_the_request() {
        // A wider request can never resolve to a narrower backend than a
        // narrower request does.
        let order = [
            BackendChoice::Scalar,
            BackendChoice::Sse2,
            BackendChoice::Avx2,
        ];
        for pair in order.windows(2) {
            assert!(resolve(pair[0]) <= resolve(pair[1]));
        }
        assert_eq!(resolve(BackendChoice::Auto), detected());
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(BackendChoice::parse("AVX2").unwrap(), BackendChoice::Avx2);
        assert_eq!(BackendChoice::parse("auto").unwrap(), BackendChoice::Auto);
        assert_eq!(
            BackendChoice::parse("scalar").unwrap(),
            BackendChoice::Scalar
        );
        assert_eq!(BackendChoice::parse("sse2").unwrap(), BackendChoice::Sse2);
        assert!(BackendChoice::parse("avx512").is_err());
    }
}
