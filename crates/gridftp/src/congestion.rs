//! AIMD congestion control for striped transfers.
//!
//! Real GridFTP lets the client pick parallelism and window sizes; the
//! paper-era servers adapted both to observed loss. This controller
//! reproduces that loop on the simulated testbed: the striped engine
//! reports every torn stripe connection (with the stripe's loss rate:
//! its torn connections over the frames it has moved, both counted by
//! the engine) and every cleanly delivered window, and the controller answers with the pull-window
//! size and the target stripe count.
//!
//! Window control is textbook AIMD: +1 chunk per clean window, halve on
//! a tear. Stripe control is slower and probabilistic — after a streak
//! of clean windows the controller *may* add a stripe, and on a tear
//! over a badly lossy stripe it *may* drop one. Both draws come from a
//! [`DetRng`] seeded by the caller, so a given seed replays the exact
//! same decision sequence; the decision log is part of the chaos
//! transcripts CI byte-compares across processes. Determinism holds
//! because every input is itself deterministic: tick times come from
//! the engine's simulated timeline, loss rates from the engine's own
//! frame counts over the world's seeded fault layer, and the draw
//! sequence from the seed — no wall clock,
//! no thread scheduling, no ambient entropy.

use gridsec_util::rng::{DetRng, RngCore};

/// The controller's one setting: how many stripes may run. The default
/// is adaptive — between 1 and 4 concurrently active stripes, starting
/// from 2; [`AimdConfig::pinned_stripes`] fixes the count instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct AimdConfig {
    pinned: Option<u32>,
}

impl AimdConfig {
    /// A config pinned to exactly `n` stripes (bench baselines compare
    /// fixed stripe counts; only the window still adapts).
    pub fn pinned_stripes(n: u32) -> Self {
        AimdConfig {
            pinned: Some(n.max(1)),
        }
    }

    /// `(fewest, most, initial)` concurrently active stripes.
    pub(crate) fn stripes(self) -> (u32, u32, u32) {
        match self.pinned {
            Some(n) => (n, n, n),
            None => (1, 4, 2),
        }
    }
}

/// Smallest pull window (chunks per request round).
const MIN_WINDOW: u32 = 1;
/// Largest pull window.
const MAX_WINDOW: u32 = 16;
/// Initial pull window.
const INIT_WINDOW: u32 = 4;
/// Clean-window streak length required before a stripe may be added.
const GROW_STREAK: u32 = 4;
/// Probability (in 1/256ths) of adding a stripe once the streak allows.
const GROW_P256: u64 = 192;
/// Loss rate (permille) above which a tear may also shed a stripe.
const SHED_LOSS_PERMILLE: u64 = 150;
/// Probability (in 1/256ths) of shedding a stripe on a qualifying tear.
const SHED_P256: u64 = 128;

/// Additive-increase / multiplicative-decrease controller over the
/// striped engine's window size and stripe count.
pub(crate) struct AimdController {
    min_stripes: u32,
    max_stripes: u32,
    window: u32,
    stripes: u32,
    clean_streak: u32,
    rng: DetRng,
    decisions: Vec<String>,
}

impl AimdController {
    /// Create a controller from its stripe setting and a replay seed.
    pub(crate) fn new(cfg: AimdConfig, seed: u64) -> Self {
        let (min_stripes, max_stripes, stripes) = cfg.stripes();
        AimdController {
            min_stripes,
            max_stripes,
            window: INIT_WINDOW,
            stripes,
            clean_streak: 0,
            rng: DetRng::seed_from_u64(seed ^ 0xA1_4D_C0_47),
            decisions: Vec::new(),
        }
    }

    /// Current pull window (chunks per request round).
    pub(crate) fn window(&self) -> u32 {
        self.window
    }

    /// Stripe count the engine should be running right now.
    pub(crate) fn target_stripes(&self) -> u32 {
        self.stripes
    }

    /// The decision log: one line per state change, deterministic per
    /// seed (chaos transcripts embed it).
    pub(crate) fn decisions(&self) -> &[String] {
        &self.decisions
    }

    fn draw256(&mut self) -> u64 {
        self.rng.next_u64() & 0xFF
    }

    /// A stripe's connection tore at simulated tick `now`;
    /// `loss_permille` is the stripe's observed loss rate: its torn
    /// connections over the frames it has moved. Multiplicative
    /// decrease on the window, and on a badly lossy stripe possibly one
    /// fewer stripe.
    pub(crate) fn on_tear(&mut self, stripe: usize, loss_permille: u64, now: u64) {
        self.clean_streak = 0;
        let old_w = self.window;
        self.window = (self.window / 2).max(MIN_WINDOW);
        let mut line = format!(
            "t={now} stripe={stripe} tear loss={loss_permille}\u{2030} window {old_w}->{}",
            self.window
        );
        if loss_permille > SHED_LOSS_PERMILLE
            && self.stripes > self.min_stripes
            && self.draw256() < SHED_P256
        {
            let old_s = self.stripes;
            self.stripes -= 1;
            line.push_str(&format!(" stripes {old_s}->{}", self.stripes));
        }
        self.decisions.push(line);
    }

    /// A full pull window was delivered with no tear at tick `now`.
    /// Additive increase on the window; after a clean streak the
    /// controller may add a stripe.
    pub(crate) fn on_clean_round(&mut self, stripe: usize, now: u64) {
        self.clean_streak += 1;
        let old_w = self.window;
        self.window = (self.window + 1).min(MAX_WINDOW);
        let mut changed = self.window != old_w;
        let mut line = format!(
            "t={now} stripe={stripe} clean window {old_w}->{}",
            self.window
        );
        if self.clean_streak >= GROW_STREAK
            && self.stripes < self.max_stripes
            && self.draw256() < GROW_P256
        {
            let old_s = self.stripes;
            self.stripes += 1;
            self.clean_streak = 0;
            line.push_str(&format!(" stripes {old_s}->{}", self.stripes));
            changed = true;
        }
        if changed {
            self.decisions.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_follows_aimd() {
        let mut c = AimdController::new(AimdConfig::default(), 7);
        assert_eq!(c.window(), 4);
        c.on_clean_round(0, 1);
        c.on_clean_round(0, 2);
        assert_eq!(c.window(), 6);
        c.on_tear(0, 100, 3);
        assert_eq!(c.window(), 3);
        for t in 4..40 {
            c.on_clean_round(0, t);
        }
        assert_eq!(c.window(), 16, "additive increase caps at max_window");
    }

    #[test]
    fn stripes_stay_within_bounds() {
        let mut c = AimdController::new(AimdConfig::default(), 9);
        for t in 0..200 {
            c.on_clean_round(0, t);
        }
        assert!(c.target_stripes() <= 4);
        for t in 200..400 {
            c.on_tear(0, 900, t);
        }
        assert_eq!(c.target_stripes(), 1, "heavy loss sheds to min_stripes");
        assert_eq!(c.window(), 1);
    }

    #[test]
    fn pinned_config_never_moves_stripes() {
        let mut c = AimdController::new(AimdConfig::pinned_stripes(1), 11);
        for t in 0..100 {
            c.on_clean_round(0, t);
            if t % 7 == 0 {
                c.on_tear(0, 999, t);
            }
        }
        assert_eq!(c.target_stripes(), 1);
    }

    #[test]
    fn same_seed_replays_the_same_decisions() {
        let drive = |seed: u64| {
            let mut c = AimdController::new(AimdConfig::default(), seed);
            for t in 0..50 {
                if t % 9 == 5 {
                    c.on_tear((t % 3) as usize, 200, t);
                } else {
                    c.on_clean_round((t % 3) as usize, t);
                }
            }
            c.decisions().to_vec()
        };
        assert_eq!(drive(0xFEED), drive(0xFEED));
        assert_ne!(
            drive(0xFEED),
            drive(0xBEEF),
            "the seed drives the probabilistic moves"
        );
    }
}
