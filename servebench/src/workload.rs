//! The four traffic mixes and their seeded request generators.
//!
//! Every input is a pure function of the workload's traffic shape and the
//! `--seed` argument; the scheduler only ever sees the generated
//! [`Request`]s. Timing decides how many of them a run sends, never what
//! they contain.

use fa_attention::serve::{Priority, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tenants sharing the scheduler (each with its own system prompt in the
/// shared-prefix mix).
pub const TENANTS: usize = 4;

/// Named traffic mixes, one per scoring path of the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Decode-heavy requests: the GEMV group pass under `step_decode`.
    DecodeSteady,
    /// Long prompts with short outputs: chunked prefill admission and
    /// prompt regeneration.
    LongPrompt,
    /// Requests behind four resident system prompts: copy-on-write
    /// prefix adoption and shared-block score tiles.
    SharedPrefix,
    /// `DecodeSteady`'s requests under γ-token speculative windows.
    Speculative,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DecodeSteady,
        Workload::LongPrompt,
        Workload::SharedPrefix,
        Workload::Speculative,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeSteady => "decode_steady",
            Workload::LongPrompt => "long_prompt",
            Workload::SharedPrefix => "shared_prefix",
            Workload::Speculative => "speculative",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frozen shape of this workload.
    pub fn spec(self) -> Spec {
        // Decode-heavy traffic shared by the two closed-loop mixes, so the
        // speculative run serves exactly decode_steady's requests.
        let decode_traffic = Traffic {
            prompt: Lengths::new(32, 128, 1.2),
            output: Lengths::new(32, 160, 1.2),
            prefix_tokens: 0,
            share_prob: 0.0,
        };
        match self {
            Workload::DecodeSteady => Spec {
                clients: 16,
                traffic: decode_traffic,
                gamma: 0,
                alpha: 0.0,
                slo_ttft_ms: 500.0,
                slo_itl_ms: 150.0,
            },
            Workload::LongPrompt => Spec {
                clients: 8,
                traffic: Traffic {
                    prompt: Lengths::new(64, 1024, 1.5),
                    output: Lengths::new(16, 64, 1.2),
                    prefix_tokens: 0,
                    share_prob: 0.0,
                },
                gamma: 0,
                alpha: 0.0,
                slo_ttft_ms: 3000.0,
                slo_itl_ms: 500.0,
            },
            Workload::SharedPrefix => Spec {
                clients: 8,
                traffic: Traffic {
                    prompt: Lengths::new(16, 64, 1.2),
                    output: Lengths::new(32, 128, 1.2),
                    prefix_tokens: 256,
                    share_prob: 0.9,
                },
                gamma: 0,
                alpha: 0.0,
                slo_ttft_ms: 1000.0,
                slo_itl_ms: 500.0,
            },
            Workload::Speculative => Spec {
                clients: 16,
                traffic: decode_traffic,
                gamma: 4,
                alpha: 0.6,
                slo_ttft_ms: 1000.0,
                slo_itl_ms: 500.0,
            },
        }
    }
}

/// A bounded-Pareto length distribution: `min / u^(1/tail)` clamped to
/// `min..=max`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lengths {
    pub min: usize,
    pub max: usize,
    pub tail: f64,
}

impl Lengths {
    const fn new(min: usize, max: usize, tail: f64) -> Lengths {
        Lengths { min, max, tail }
    }

    /// The length at quantile `u` in `(0, 1]`.
    fn at(self, u: f64) -> usize {
        ((self.min as f64 / u.powf(1.0 / self.tail)) as usize).clamp(self.min, self.max)
    }
}

/// Requests per stratum block: each run of this many consecutive requests
/// takes one length from each of as many equal quantile slices of the
/// distribution. The order the slices recur in is part of the frozen
/// workload shape (the same for every seed); the seed places each length
/// within its slice. Seeds then change every length, but not how long and
/// short requests interleave, which otherwise swung peak memory and tail
/// latency by 20–30% between seeds in a 20-second window.
const STRATUM: usize = 32;

/// Stratified quantiles for one length distribution.
struct Strata {
    /// Shuffles slice order with a fixed seed.
    shape: StdRng,
    order: Vec<usize>,
}

impl Strata {
    fn new(lane: u64) -> Strata {
        Strata {
            shape: StdRng::seed_from_u64(mix(0x53_4841_5045, lane)),
            order: Vec::new(),
        }
    }

    /// The next quantile in `(0, 1]`, jittered within its slice by `rng`.
    fn next(&mut self, rng: &mut StdRng) -> f64 {
        if self.order.is_empty() {
            self.order = (0..STRATUM).collect();
            for i in (1..STRATUM).rev() {
                let j = self.shape.gen_range(0..=i);
                self.order.swap(i, j);
            }
        }
        let k = self.order.pop().expect("refilled above");
        (k as f64 + rng.gen_range(f64::EPSILON..1.0)) / STRATUM as f64
    }
}

/// What each request looks like.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Traffic {
    /// Prompt length; with a shared prefix, the private suffix only.
    pub prompt: Lengths,
    pub output: Lengths,
    /// Each tenant's system-prompt length (0 = no shared prefixes).
    pub prefix_tokens: usize,
    /// Probability a request starts with its tenant's system prompt.
    pub share_prob: f64,
}

/// A workload: traffic, closed-loop client count, the scheduler knobs that
/// differ between workloads, and the latency limits its goodput is judged
/// by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Clients, each sending its next request when the previous finishes.
    pub clients: usize,
    pub traffic: Traffic,
    /// Speculative window γ (0 = plain decode).
    pub gamma: usize,
    /// Draft acceptance probability α (only read at γ ≥ 2).
    pub alpha: f64,
    /// Goodput limit on time to first token.
    pub slo_ttft_ms: f64,
    /// Goodput limit on every inter-token gap.
    pub slo_itl_ms: f64,
}

/// Splitmix64 finalizer over `seed ^ lane·φ`: independent streams from
/// one seed.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const LANE_REQUESTS: u64 = 1;
const LANE_WARMUP: u64 = 3;
const LANE_PREFIX: u64 = 4;
/// Seeds the sample of finished requests the output check re-serves.
pub const LANE_CHECK: u64 = 5;

/// Tenant `t`'s system-prompt stream seed under workload seed `seed`.
pub fn prefix_seed(seed: u64, tenant: usize) -> u64 {
    mix(mix(seed, LANE_PREFIX), tenant as u64)
}

/// The endless, deterministic request sequence of one run.
pub struct RequestStream {
    traffic: Traffic,
    seed: u64,
    rng: StdRng,
    prompts: Strata,
    outputs: Strata,
}

impl RequestStream {
    pub fn new(traffic: Traffic, seed: u64) -> RequestStream {
        RequestStream {
            traffic,
            seed,
            rng: StdRng::seed_from_u64(mix(seed, LANE_REQUESTS)),
            prompts: Strata::new(1),
            outputs: Strata::new(2),
        }
    }

    pub fn next_request(&mut self) -> Request {
        let t = self.traffic;
        let prompt_tokens = t.prompt.at(self.prompts.next(&mut self.rng));
        let output_tokens = t.output.at(self.outputs.next(&mut self.rng));
        let tenant = self.rng.gen_range(0..TENANTS);
        let seed = self.rng.gen_range(0..u64::MAX);
        let shares = t.prefix_tokens > 0 && self.rng.gen_range(0.0..1.0) < t.share_prob;
        Request {
            tenant,
            priority: Priority::Interactive,
            prompt_tokens,
            output_tokens,
            seed,
            prefix_seed: shares.then(|| prefix_seed(self.seed, tenant)),
            prefix_tokens: if shares { t.prefix_tokens } else { 0 },
        }
    }
}

/// Warmup traffic: one short request per tenant, each behind its tenant's
/// system prompt when the workload shares prefixes (so every prefix is
/// resident before measurement starts).
pub fn warmup_requests(traffic: Traffic, seed: u64) -> Vec<Request> {
    let mut stream = RequestStream::new(traffic, mix(seed, LANE_WARMUP));
    (0..TENANTS)
        .map(|tenant| {
            let mut r = stream.next_request();
            r.tenant = tenant;
            r.output_tokens = 2;
            if traffic.prefix_tokens > 0 {
                r.prefix_seed = Some(prefix_seed(seed, tenant));
                r.prefix_tokens = traffic.prefix_tokens;
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &Request, b: &Request) -> bool {
        (
            a.tenant,
            a.priority,
            a.prompt_tokens,
            a.output_tokens,
            a.seed,
            a.prefix_seed,
            a.prefix_tokens,
        ) == (
            b.tenant,
            b.priority,
            b.prompt_tokens,
            b.output_tokens,
            b.seed,
            b.prefix_seed,
            b.prefix_tokens,
        )
    }

    #[test]
    fn request_generation_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let t = w.spec().traffic;
            let mut a = RequestStream::new(t, 7);
            let mut b = RequestStream::new(t, 7);
            let mut c = RequestStream::new(t, 8);
            let mut differs = false;
            for _ in 0..200 {
                let (x, y, z) = (a.next_request(), b.next_request(), c.next_request());
                assert!(same(&x, &y), "{}: same seed, different request", w.name());
                differs |= !same(&x, &z);
                assert!((t.prompt.min..=t.prompt.max).contains(&x.prompt_tokens));
                assert!((t.output.min..=t.output.max).contains(&x.output_tokens));
                assert_eq!(x.prefix_seed.is_some(), x.prefix_tokens > 0);
            }
            assert!(
                differs,
                "{}: seeds 7 and 8 generated the same traffic",
                w.name()
            );
            let warm = |s| warmup_requests(t, s);
            assert!(warm(7).iter().zip(&warm(7)).all(|(x, y)| same(x, y)));
        }
    }

    #[test]
    fn speculative_serves_decode_steady_traffic() {
        let (d, s) = (Workload::DecodeSteady.spec(), Workload::Speculative.spec());
        assert_eq!(d.traffic, s.traffic);
        assert_eq!(d.clients, s.clients);
        assert_eq!((d.gamma, s.gamma), (0, 4));
    }

    #[test]
    fn shared_prefix_requests_name_their_tenants_prompt() {
        let t = Workload::SharedPrefix.spec().traffic;
        let mut s = RequestStream::new(t, 3);
        let reqs: Vec<Request> = (0..400).map(|_| s.next_request()).collect();
        let shared = reqs.iter().filter(|r| r.prefix_seed.is_some()).count();
        assert!(
            (300..=390).contains(&shared),
            "share probability 0.9: {shared}/400"
        );
        for r in reqs.iter().filter(|r| r.prefix_seed.is_some()) {
            assert_eq!(r.prefix_seed, Some(prefix_seed(3, r.tenant)));
            assert_eq!(r.prefix_tokens, t.prefix_tokens);
        }
        for (tenant, r) in warmup_requests(t, 3).iter().enumerate() {
            assert_eq!(r.prefix_seed, Some(prefix_seed(3, tenant)));
        }
    }
}
