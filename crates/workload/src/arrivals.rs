//! Open-loop arrival generation for the continuous query service.
//!
//! A service benchmark that waits for one query to finish before sending
//! the next (closed-loop) can never observe overload: the client
//! self-throttles exactly when the server is slowest, hiding queueing
//! delay — the *coordinated omission* trap. The service experiments
//! instead use an **open-loop** arrival process: every tenant submits on
//! its own Poisson clock regardless of how the service is doing, so
//! sustained overload actually accumulates queue depth and the shedding
//! and deadline machinery gets exercised.
//!
//! The whole schedule is a pure function of the spec (seeded, tenant- and
//! class-salted LCG → exponential interarrivals), so a run can be replayed
//! bit-for-bit and CI can gate on exact shed/admit counts.

/// What kind of query a tenant submits. This is the *service-level* class
/// (latency expectation, deadline, queue priority) — not to be confused
/// with `xprs_disk::ServiceClass`, which classifies individual disk
/// requests by access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Short lookup over a narrow key range: a human is waiting, so it
    /// carries a tight deadline and a p99 expectation near its p50.
    Interactive,
    /// Long scan over most of a relation: throughput matters, latency
    /// tolerance is generous.
    Batch,
}

impl QueryClass {
    /// Stable lowercase label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Batch => "batch",
        }
    }
}

/// One tenant's offered load, in queries per simulated second per class.
/// A rate of 0 disables that class for the tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantLoad {
    /// Interactive lookups per second.
    pub interactive_qps: f64,
    /// Batch scans per second.
    pub batch_qps: f64,
}

/// The arrival schedule spec: who offers how much load for how long.
#[derive(Debug, Clone)]
pub struct ArrivalSpec {
    /// Master seed; the schedule is a pure function of the spec.
    pub seed: u64,
    /// Schedule horizon in seconds — arrivals strictly before this.
    pub horizon: f64,
    /// Per-tenant offered load; index is the tenant id.
    pub tenants: Vec<TenantLoad>,
}

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds from schedule start.
    pub at: f64,
    /// Index into [`ArrivalSpec::tenants`].
    pub tenant: u32,
    /// Service class of the submission.
    pub class: QueryClass,
    /// Position in the merged schedule (0-based), assigned after the merge
    /// so it is stable across replays.
    pub seq: u64,
}

/// Multiplicative-congruential step (Steele & Vigna's LCG constants for a
/// 64-bit state); the top bits feed the uniform draw.
pub(crate) fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(0xd120_2e4f_a0d8_1645).wrapping_add(0x2545_f491_4f6c_dd1d);
    *state
}

/// Uniform in `[0, 1)` from the high 53 bits.
pub(crate) fn uniform(state: &mut u64) -> f64 {
    (lcg_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential interarrival with the given rate (events per second).
fn exp_interarrival(state: &mut u64, rate: f64) -> f64 {
    // 1 - u is in (0, 1], so ln() is finite and the gap strictly positive.
    -(1.0 - uniform(state)).ln() / rate
}

/// Generate the merged, time-ordered arrival schedule for `spec`.
///
/// Each `(tenant, class)` pair runs an independent Poisson process with a
/// seed salted by tenant id and class, so adding a tenant or changing one
/// tenant's rate never perturbs another tenant's arrival times.
pub fn generate_arrivals(spec: &ArrivalSpec) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (tenant, load) in spec.tenants.iter().enumerate() {
        for (class, rate) in [
            (QueryClass::Interactive, load.interactive_qps),
            (QueryClass::Batch, load.batch_qps),
        ] {
            if rate <= 0.0 {
                continue;
            }
            let salt = match class {
                QueryClass::Interactive => 0x1A7E_u64,
                QueryClass::Batch => 0xBA7C_u64,
            };
            let mut state = spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((tenant as u64) << 17)
                .wrapping_add(salt);
            // Warm the state so nearby seeds decorrelate.
            lcg_next(&mut state);
            let mut t = 0.0f64;
            loop {
                t += exp_interarrival(&mut state, rate);
                if t >= spec.horizon {
                    break;
                }
                out.push(Arrival { at: t, tenant: tenant as u32, class, seq: 0 });
            }
        }
    }
    // Total order even under float ties: break by tenant, then class.
    out.sort_by(|a, b| {
        a.at.partial_cmp(&b.at)
            .expect("arrival times are finite")
            .then(a.tenant.cmp(&b.tenant))
            .then((a.class == QueryClass::Batch).cmp(&(b.class == QueryClass::Batch)))
    });
    for (i, a) in out.iter_mut().enumerate() {
        a.seq = i as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArrivalSpec {
        ArrivalSpec {
            seed: 42,
            horizon: 100.0,
            tenants: vec![
                TenantLoad { interactive_qps: 5.0, batch_qps: 0.5 },
                TenantLoad { interactive_qps: 2.0, batch_qps: 0.0 },
            ],
        }
    }

    #[test]
    fn schedule_is_deterministic_and_time_ordered() {
        let a = generate_arrivals(&spec());
        let b = generate_arrivals(&spec());
        assert_eq!(a, b, "same spec must replay bit-for-bit");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "must be time-ordered");
        assert!(a.iter().enumerate().all(|(i, x)| x.seq == i as u64));
        assert!(a.iter().all(|x| x.at >= 0.0 && x.at < 100.0));
    }

    #[test]
    fn rates_come_out_near_the_offered_load() {
        let arrivals = generate_arrivals(&spec());
        let count = |tenant: u32, class: QueryClass| {
            arrivals.iter().filter(|a| a.tenant == tenant && a.class == class).count() as f64
        };
        // Poisson(rate * horizon): mean 500, sd ~22 — a 4-sigma band.
        let n = count(0, QueryClass::Interactive);
        assert!((410.0..=590.0).contains(&n), "tenant 0 interactive: {n}");
        let n = count(0, QueryClass::Batch); // mean 50, sd ~7
        assert!((20.0..=80.0).contains(&n), "tenant 0 batch: {n}");
        assert_eq!(count(1, QueryClass::Batch), 0.0, "rate 0 must mean no arrivals");
    }

    #[test]
    fn tenants_are_independent_processes() {
        // Dropping tenant 1 must not move tenant 0's arrival times.
        let full = generate_arrivals(&spec());
        let mut solo_spec = spec();
        solo_spec.tenants.truncate(1);
        let solo = generate_arrivals(&solo_spec);
        let t0_times: Vec<f64> =
            full.iter().filter(|a| a.tenant == 0).map(|a| a.at).collect();
        let solo_times: Vec<f64> = solo.iter().map(|a| a.at).collect();
        assert_eq!(t0_times, solo_times);
    }
}
