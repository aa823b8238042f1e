//! Bitwise pin of the serial `Θ(T²)` American loop nests.
//!
//! `fixtures/naive_bits.tsv` holds `to_bits()` of the serial
//! `bopm::naive::price` / `topm::naive::price` (call and put) and
//! `bsm::naive::price_american_put`, recorded from the per-cell
//! `node_price`/`exercise` nests before they became table-driven row
//! kernels.  Every row must still reproduce exactly: the rewrite changed
//! where the exercise values come from, never their arithmetic.
//!
//! Regenerate (only when a change *intends* to move these prices):
//! `cargo test -p amopt-core --test dense_pin -- --ignored --nocapture print_fixture`
//! and paste the printed rows over the fixture.

use amopt_core::bopm::{self, BopmModel};
use amopt_core::bsm::{self, BsmModel};
use amopt_core::topm::{self, TopmModel};
use amopt_core::{ExerciseStyle, OptionParams, OptionType};

const FIXTURE: &str = include_str!("fixtures/naive_bits.tsv");
const STEPS: [usize; 6] = [1, 2, 3, 17, 252, 1000];
const CONTRACTS_PER_CELL: usize = 3;

/// SplitMix64, so the grid is a pure function of one seed.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn params(&mut self, dividend_free: bool) -> OptionParams {
        OptionParams {
            spot: self.range(10.0, 500.0),
            strike: self.range(10.0, 500.0),
            rate: self.range(0.0, 0.10),
            volatility: self.range(0.05, 0.8),
            dividend_yield: if dividend_free { 0.0 } else { self.range(0.0, 0.10) },
            expiry: self.range(0.1, 3.0),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Family {
    BopmCall,
    BopmPut,
    TopmCall,
    TopmPut,
    BsmPut,
}

impl Family {
    const ALL: [Family; 5] =
        [Family::BopmCall, Family::BopmPut, Family::TopmCall, Family::TopmPut, Family::BsmPut];

    fn name(self) -> &'static str {
        match self {
            Family::BopmCall => "bopm_call",
            Family::BopmPut => "bopm_put",
            Family::TopmCall => "topm_call",
            Family::TopmPut => "topm_put",
            Family::BsmPut => "bsm_put",
        }
    }

    fn parse(name: &str) -> Family {
        Family::ALL.into_iter().find(|f| f.name() == name).expect("known family")
    }

    fn builds(self, p: OptionParams, steps: usize) -> bool {
        match self {
            Family::BopmCall | Family::BopmPut => BopmModel::new(p, steps).is_ok(),
            Family::TopmCall | Family::TopmPut => TopmModel::new(p, steps).is_ok(),
            Family::BsmPut => BsmModel::new(p, steps).is_ok(),
        }
    }

    /// The serial nest's price, or `None` when the contract has no model.
    fn price(self, p: OptionParams, steps: usize) -> Option<f64> {
        let am = ExerciseStyle::American;
        let opt = match self {
            Family::BopmCall | Family::TopmCall => OptionType::Call,
            _ => OptionType::Put,
        };
        match self {
            Family::BopmCall | Family::BopmPut => BopmModel::new(p, steps)
                .ok()
                .map(|m| bopm::naive::price(&m, opt, am, bopm::naive::ExecMode::Serial)),
            Family::TopmCall | Family::TopmPut => TopmModel::new(p, steps)
                .ok()
                .map(|m| topm::naive::price(&m, opt, am, topm::naive::ExecMode::Serial)),
            Family::BsmPut => BsmModel::new(p, steps)
                .ok()
                .map(|m| bsm::naive::price_american_put(&m, bsm::naive::ExecMode::Serial)),
        }
    }
}

/// The seeded grid: paper defaults plus `CONTRACTS_PER_CELL` random
/// admissible contracts per (family, steps), redrawn until the model builds.
fn grid() -> Vec<(Family, usize, OptionParams)> {
    let mut rng = Rng(0x5eed_d3e5_e000_0001);
    let mut out = Vec::new();
    for family in Family::ALL {
        let dividend_free = matches!(family, Family::BsmPut);
        for steps in STEPS {
            let defaults = OptionParams {
                dividend_yield: if dividend_free { 0.0 } else { 0.0163 },
                ..OptionParams::paper_defaults()
            };
            if family.builds(defaults, steps) {
                out.push((family, steps, defaults));
            }
            for _ in 0..CONTRACTS_PER_CELL {
                let p = loop {
                    let p = rng.params(dividend_free);
                    if family.builds(p, 1) && family.builds(p, steps) {
                        break p;
                    }
                };
                out.push((family, steps, p));
            }
        }
    }
    out
}

fn row(family: Family, steps: usize, p: &OptionParams, price: f64) -> String {
    let bits = [p.spot, p.strike, p.rate, p.volatility, p.dividend_yield, p.expiry, price]
        .map(|x| format!("{:016x}", x.to_bits()));
    format!("{}\t{steps}\t{}", family.name(), bits.join("\t"))
}

#[test]
#[ignore = "prints a fresh fixture; run by hand when a change intends to move the pinned prices"]
fn print_fixture() {
    println!("# family\tsteps\tspot\tstrike\trate\tvol\tdiv\texpiry\tprice (f64 bits, hex)");
    for (family, steps, p) in grid() {
        let price = family.price(p, steps).expect("grid contracts build");
        println!("{}", row(family, steps, &p, price));
    }
}

#[test]
fn serial_nests_reproduce_the_pinned_bits() {
    let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex f64 bits"));
    let mut checked = 0;
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 9, "malformed fixture row: {line}");
        let family = Family::parse(cols[0]);
        let steps: usize = cols[1].parse().expect("steps");
        let p = OptionParams {
            spot: hex(cols[2]),
            strike: hex(cols[3]),
            rate: hex(cols[4]),
            volatility: hex(cols[5]),
            dividend_yield: hex(cols[6]),
            expiry: hex(cols[7]),
        };
        let want = hex(cols[8]);
        let got = family.price(p, steps).expect("pinned contract builds");
        assert_eq!(got.to_bits(), want.to_bits(), "{line}: {got} vs pinned {want}");
        checked += 1;
    }
    // Every (family, steps) cell is covered by the defaults and the draws.
    assert!(checked >= Family::ALL.len() * STEPS.len() * CONTRACTS_PER_CELL, "{checked} rows");
}
