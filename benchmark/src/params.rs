//! The ring of eight query-parameter sets a run cycles through: pass `i`
//! binds set `i mod 8`, so a warm plan cache re-binds a cached plan to new
//! values on every statement instead of replaying identical bindings.
//!
//! Set 0 is the repository's pinned set; sets 1..8 are drawn from `--seed`
//! over the TPC-D substitution domains (the vocabularies and date window
//! the generator itself draws from), whose values select comparable
//! shares of the data — which is what keeps two seeds comparable.

use monet::atom::Date;
use tpcd::text::{self, NAME_PARTS, NATIONS, REGIONS, SEGMENTS, SHIP_MODES, TYPES_3};
use tpcd_queries::Params;

pub const RING: usize = 8;

/// SplitMix64: the benchmark's only random source besides `tpcd::generate`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next() % (hi - lo + 1) as u64) as i32
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[(self.next() % pool.len() as u64) as usize]
    }

    /// Two different entries of `pool`.
    fn pick_two<T: Copy>(&mut self, pool: &[T]) -> (T, T) {
        let a = (self.next() % pool.len() as u64) as usize;
        let b = (a + 1 + (self.next() % (pool.len() - 1) as u64) as usize) % pool.len();
        (pool[a], pool[b])
    }

    /// The first of a month, `first..=last` counted in months from 1992-01.
    fn month_start(&mut self, first: (i32, i32), last: (i32, i32)) -> Date {
        let index = |(y, m): (i32, i32)| (y - 1992) * 12 + m - 1;
        let (origin, _) = tpcd::gen::order_date_range();
        origin.add_months(self.range(index(first), index(last)))
    }
}

pub fn ring(seed: u64, sf: f64) -> Vec<Params> {
    let pinned = Params::for_sf(sf);
    let mut rng = Rng(seed ^ 0x7063_645f_7269_6e67);
    let mut sets = vec![pinned.clone()];
    while sets.len() < RING {
        let (q7_nation1, q7_nation2) = rng.pick_two(&NATIONS);
        let (q8_nation, q8_region) = rng.pick(&NATIONS);
        let (q12_mode1, q12_mode2) = rng.pick_two(&SHIP_MODES);
        let q6_disc = rng.range(2, 9) as f64 / 100.0;
        sets.push(Params {
            q1_cutoff: Date::from_ymd(1998, 12, 1).add_days(-rng.range(60, 120)),
            q2_region: rng.pick(&REGIONS).into(),
            q2_size: rng.range(1, 50),
            q2_type_contains: rng.pick(&TYPES_3).into(),
            q3_segment: rng.pick(&SEGMENTS).into(),
            q3_date: Date::from_ymd(1995, 3, 1).add_days(rng.range(0, 30)),
            q4_date: rng.month_start((1993, 1), (1997, 10)),
            q5_region: rng.pick(&REGIONS).into(),
            q5_date: rng.month_start((1993, 1), (1997, 1)),
            q6_date: rng.month_start((1993, 1), (1997, 1)),
            q6_disc_lo: q6_disc - 0.01,
            q6_disc_hi: q6_disc + 0.01,
            q6_qty: rng.range(24, 25),
            q7_nation1: q7_nation1.0.into(),
            q7_nation2: q7_nation2.0.into(),
            q8_region: REGIONS[q8_region].into(),
            q8_nation: q8_nation.into(),
            q8_type_contains: rng.pick(&TYPES_3).into(),
            q9_color: rng.pick(&NAME_PARTS).into(),
            q10_date: rng.month_start((1993, 2), (1995, 1)),
            q11_nation: rng.pick(&NATIONS).0.into(),
            q11_fraction: pinned.q11_fraction,
            q12_mode1: q12_mode1.into(),
            q12_mode2: q12_mode2.into(),
            q12_date: rng.month_start((1993, 1), (1997, 1)),
            q13_clerk: text::clerk_name(
                rng.range(1, tpcd::gen::clerk_count_for_sf(sf) as i32) as u32
            ),
            q14_date: rng.month_start((1993, 1), (1997, 12)),
            q15_date: rng.month_start((1993, 1), (1997, 10)),
        });
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_a_function_of_the_seed() {
        let a = ring(7, 0.001);
        let b = ring(7, 0.001);
        let c = ring(8, 0.001);
        assert_eq!(a.len(), RING);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert_eq!(format!("{:?}", a[0]), format!("{:?}", Params::for_sf(0.001)));
    }

    #[test]
    fn drawn_values_stay_in_their_domains() {
        let (lo, hi) = tpcd::gen::order_date_range();
        for seed in 0..200 {
            for p in ring(seed, 0.001).iter().skip(1) {
                assert_ne!(p.q7_nation1, p.q7_nation2);
                assert_ne!(p.q12_mode1, p.q12_mode2);
                let (_, region) = NATIONS.iter().find(|(n, _)| *n == p.q8_nation).unwrap();
                assert_eq!(REGIONS[*region], p.q8_region);
                for d in [p.q4_date, p.q5_date, p.q6_date, p.q10_date, p.q14_date, p.q15_date] {
                    assert!(d >= lo && d.add_months(3) <= hi, "{d:?}");
                    assert_eq!(d.to_ymd().2, 1);
                }
            }
        }
    }
}
