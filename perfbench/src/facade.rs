//! Direct calls into the public pricers, bypassing the batch layer: the
//! reference the batch results are checked against, and the engine time a
//! batch round is compared with.

use american_option_pricing::core::batch::{ModelKind, PricingRequest, Style};
use american_option_pricing::core::bopm::{self, BopmModel};
use american_option_pricing::core::bsm::{self, BsmModel};
use american_option_pricing::core::topm::{self, TopmModel};
use american_option_pricing::core::{bermudan, EngineConfig, OptionType, PricingError, Result};

/// Prices `req` through the public pricer the batch layer documents for
/// it.  Bermudan schedules must already be sorted and deduplicated.
pub fn price(req: &PricingRequest, cfg: &EngineConfig) -> Result<f64> {
    let p = req.params;
    match (req.model, &req.style, req.option_type) {
        (ModelKind::Bopm, Style::American, OptionType::Call) => {
            Ok(bopm::fast::price_american_call(&BopmModel::new(p, req.steps)?, cfg))
        }
        (ModelKind::Bopm, Style::American, OptionType::Put) => {
            Ok(bopm::fast::price_american_put(&BopmModel::new(p, req.steps)?, cfg))
        }
        (ModelKind::Bopm, Style::European, opt) => {
            Ok(bopm::european::price_european_fft(&BopmModel::new(p, req.steps)?, opt))
        }
        (ModelKind::Bopm, Style::Bermudan(dates), OptionType::Put) => {
            bermudan::price_bermudan_put_fft(&BopmModel::new(p, req.steps)?, dates, cfg.backend)
        }
        (ModelKind::Topm, Style::American, OptionType::Call) => {
            Ok(topm::fast::price_american_call(&TopmModel::new(p, req.steps)?, cfg))
        }
        (ModelKind::Topm, Style::American, OptionType::Put) => {
            Ok(topm::fast::price_american_put(&TopmModel::new(p, req.steps)?, cfg))
        }
        (ModelKind::Topm, Style::European, opt) => {
            Ok(topm::european::price_european_fft(&TopmModel::new(p, req.steps)?, opt))
        }
        (ModelKind::Bsm, Style::American, OptionType::Put) => {
            Ok(bsm::fast::price_american_put(&BsmModel::new(p, req.steps)?, cfg))
        }
        (ModelKind::Bsm, Style::European, OptionType::Put) => {
            Ok(bsm::fast::price_european_put_fft(&BsmModel::new(p, req.steps)?))
        }
        _ => Err(PricingError::Unsupported { what: "no direct pricer for this request".into() }),
    }
}

/// The `Θ(T²)` loop-nest price of an American request: the oracle the
/// fast engines are held to.
pub fn naive_american(req: &PricingRequest) -> Result<f64> {
    use american_option_pricing::core::ExerciseStyle::American;
    let p = req.params;
    match req.model {
        ModelKind::Bopm => Ok(bopm::naive::price(
            &BopmModel::new(p, req.steps)?,
            req.option_type,
            American,
            bopm::naive::ExecMode::Serial,
        )),
        ModelKind::Topm => Ok(topm::naive::price(
            &TopmModel::new(p, req.steps)?,
            req.option_type,
            American,
            topm::naive::ExecMode::Serial,
        )),
        ModelKind::Bsm => match req.option_type {
            OptionType::Put => Ok(bsm::naive::price_american_put(
                &BsmModel::new(p, req.steps)?,
                bsm::naive::ExecMode::Serial,
            )),
            OptionType::Call => Err(PricingError::Unsupported { what: "BSM American call".into() }),
        },
    }
}
