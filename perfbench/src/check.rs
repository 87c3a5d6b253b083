//! Output checks. Every operation of a pass either renders output bytes or
//! fails; rendered bytes must match the first (warm-up) pass's, so a pass
//! that silently computes something different counts as failed.

use dcb_fleet::StableHasher;

/// One operation of a pass: a render, claim, report, parse, resolve or
/// export. `Err` carries why it failed (a FAIL claim, a panic, an `Err`
/// return, or a broken invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// What the operation was.
    pub name: String,
    /// Its output bytes, or the failure.
    pub outcome: Result<String, String>,
}

impl Op {
    /// A successful operation with output `bytes`.
    #[must_use]
    pub fn ok(name: impl Into<String>, bytes: String) -> Self {
        Self {
            name: name.into(),
            outcome: Ok(bytes),
        }
    }

    /// A failed operation.
    #[must_use]
    pub fn failed(name: impl Into<String>, why: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            outcome: Err(why.into()),
        }
    }
}

/// Runs `f`, turning a panic into an `Err` carrying the panic message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        format!("panicked: {message}")
    })
}

fn digest(bytes: &str) -> u128 {
    let mut hasher = StableHasher::new();
    hasher.write_bytes(bytes.as_bytes());
    hasher.finish()
}

/// Counts attempted and failed operations against the first pass seen.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Option<Vec<(String, Option<u128>)>>,
    pass_digest: u128,
    pass_bytes: usize,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker with no reference yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks one pass. The first pass observed becomes the reference that
    /// every later pass's bytes must match; its own `Err`s still count.
    pub fn observe(&mut self, ops: &[Op]) {
        let digests: Vec<(String, Option<u128>)> = ops
            .iter()
            .map(|op| (op.name.clone(), op.outcome.as_ref().ok().map(|b| digest(b))))
            .collect();
        if self.reference.is_none() {
            let mut whole = StableHasher::new();
            for op in ops {
                whole.write_str(&op.name);
                if let Ok(bytes) = &op.outcome {
                    whole.write_str(bytes);
                }
            }
            self.pass_digest = whole.finish();
            self.pass_bytes = ops
                .iter()
                .filter_map(|op| op.outcome.as_ref().ok())
                .map(String::len)
                .sum();
            self.reference = Some(digests.clone());
        }
        let reference = self.reference.take().expect("reference set above");
        if reference.len() != ops.len() {
            self.fail(format!(
                "pass has {} operations, the warm-up pass had {}",
                ops.len(),
                reference.len()
            ));
        }
        for (i, op) in ops.iter().enumerate() {
            self.attempted += 1;
            let why = match (&op.outcome, reference.get(i)) {
                (Err(why), _) => Some(why.clone()),
                (Ok(_), Some((name, Some(want))))
                    if *name == op.name && Some(*want) == digests[i].1 =>
                {
                    None
                }
                (Ok(_), _) => Some("output differs from the warm-up pass".to_owned()),
            };
            if let Some(why) = why {
                self.failed += 1;
                self.fail(format!("{}: {why}", op.name));
            }
        }
        self.reference = Some(reference);
    }

    /// Counts one extra operation checked outside a pass (a replay or a
    /// cross-check); `Err` marks it failed.
    pub fn record(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.fail(format!("{name}: {why}"));
        }
    }

    /// Adds another checker's counts and failures to this one's.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for failure in other.failures {
            self.fail(failure);
        }
    }

    fn fail(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Digest and byte count of the reference pass's outputs.
    #[must_use]
    pub fn pass_digest(&self) -> (u128, usize) {
        (self.pass_digest, self.pass_bytes)
    }
}
