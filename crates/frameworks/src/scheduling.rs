//! The one quantum pump every multi-GPM driver executes through.

use std::collections::VecDeque;

use oovr_gpu::{Executor, GpmState, RenderUnit, RunningUnit};
use oovr_mem::GpmId;

/// A group of units queued on one GPM, executed front to back; a tracked
/// lot reports its start and end [`GpmState`] once its last unit finishes.
#[derive(Debug)]
pub struct Lot {
    /// Units awaiting execution.
    pub units: VecDeque<RenderUnit>,
    /// Tracking id handed out by [`Lanes::push`] (`None` = untracked).
    pub track: Option<usize>,
}

/// A tracked lot that finished, as reported by [`Lanes::step`].
#[derive(Debug, Clone, Copy)]
pub struct LotDone {
    /// GPM that ran the lot's last unit.
    pub gpm: usize,
    /// The lot's tracking id.
    pub track: usize,
    /// That GPM's state just before the lot's first unit started.
    pub start: GpmState,
    /// That GPM's state just after the lot's last unit finished.
    pub end: GpmState,
}

#[derive(Debug)]
struct Track {
    start: Option<GpmState>,
    left: usize,
}

/// Per-GPM FIFOs of [`Lot`]s drained in global time order: every
/// [`step`](Self::step) runs one *quantum* on the GPM with the earliest
/// clock among those with work. This is how concurrent GPMs interleave
/// their demand on the shared NVLinks, matching hardware arbitration —
/// executing whole units at once would skew GPM clocks and mis-serialize
/// the FIFO bandwidth servers. Lots stay contiguous per GPM, so a tracked
/// lot's boundaries are exact despite the interleaving. Drivers may
/// reorder, split or move queued lots between steps; a lot keeps its track
/// wherever it runs.
#[derive(Debug)]
pub struct Lanes<'s> {
    /// One FIFO per GPM; the front lot is the one executing.
    pub queues: Vec<VecDeque<Lot>>,
    running: Vec<Option<(Option<usize>, RunningUnit<'s>)>>,
    tracks: Vec<Track>,
}

impl<'s> Lanes<'s> {
    /// Empty lanes for `n` GPMs.
    pub fn new(n: usize) -> Self {
        Lanes {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            running: (0..n).map(|_| None).collect(),
            tracks: Vec::new(),
        }
    }

    /// Queues `units` as one lot on GPM `g`. A tracked lot gets the next
    /// tracking id (0, 1, ... in push order), which is returned.
    pub fn push(&mut self, g: usize, units: VecDeque<RenderUnit>, tracked: bool) -> Option<usize> {
        let track = tracked.then(|| {
            self.tracks.push(Track { start: None, left: units.len() });
            self.tracks.len() - 1
        });
        self.queues[g].push_back(Lot { units, track });
        track
    }

    /// Whether GPM `g` is in the middle of a unit.
    pub fn is_running(&self, g: usize) -> bool {
        self.running[g].is_some()
    }

    /// Runs one quantum on the earliest-clock GPM with work (ties go to the
    /// lowest index). Returns `None` when no GPM has work, `Some(None)`
    /// after an ordinary quantum, and `Some(Some(done))` when the quantum
    /// finished a tracked lot's last unit.
    pub fn step(&mut self, ex: &mut Executor<'s>) -> Option<Option<LotDone>> {
        let mut best: Option<(usize, u64)> = None;
        for (g, q) in self.queues.iter().enumerate() {
            if self.running[g].is_none() && q.iter().all(|l| l.units.is_empty()) {
                continue;
            }
            let now = ex.gpm(GpmId(g as u8)).now;
            if best.is_none_or(|(_, t)| now < t) {
                best = Some((g, now));
            }
        }
        let (g, _) = best?;
        let gid = GpmId(g as u8);
        let q = &mut self.queues[g];
        let (track, ru) = match &mut self.running[g] {
            Some((track, ru)) => (*track, ru),
            slot => {
                while q.front().is_some_and(|l| l.units.is_empty()) {
                    q.pop_front();
                }
                let lot = q.front_mut().expect("GPM has queued work");
                let unit = lot.units.pop_front().expect("front lot has units");
                if let Some(t) = lot.track {
                    self.tracks[t].start.get_or_insert(*ex.gpm(gid));
                }
                let (track, ru) = slot.insert((lot.track, ex.start_unit(&unit)));
                (*track, ru)
            }
        };
        if !ex.step_unit(gid, ru) {
            return Some(None);
        }
        self.running[g] = None;
        while q.front().is_some_and(|l| l.units.is_empty()) {
            q.pop_front();
        }
        let Some(t) = track else { return Some(None) };
        let tr = &mut self.tracks[t];
        tr.left -= 1;
        if tr.left > 0 {
            return Some(None);
        }
        let start = tr.start.expect("tracked lot started before finishing");
        Some(Some(LotDone { gpm: g, track: t, start, end: *ex.gpm(gid) }))
    }
}

/// Drains per-GPM work queues through [`Lanes`], one untracked lot per GPM.
pub fn run_interleaved(ex: &mut Executor<'_>, queues: Vec<VecDeque<RenderUnit>>) {
    assert_eq!(queues.len(), ex.n_gpms(), "one queue per GPM");
    let mut lanes = Lanes::new(queues.len());
    for (g, q) in queues.into_iter().enumerate() {
        lanes.push(g, q, false);
    }
    while lanes.step(ex).is_some() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_gpu::{ColorMode, Composition, FbOrg, GpuConfig};
    use oovr_mem::Placement;
    use oovr_scene::{ObjectId, SceneBuilder};

    #[test]
    fn all_queued_units_execute() {
        let scene = SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("a", |o| {
                o.rect(0.0, 0.0, 0.4, 0.4).grid(2, 2).texture("t", 1.0);
            })
            .object("b", |o| {
                o.rect(0.5, 0.5, 0.4, 0.4).grid(2, 2).texture("t", 1.0);
            })
            .build();
        let cfg = GpuConfig::default();
        let mut ex = Executor::new(
            cfg,
            &scene,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        );
        let mut queues = vec![VecDeque::new(); 4];
        queues[0].push_back(RenderUnit::smp(ObjectId(0)));
        queues[2].push_back(RenderUnit::smp(ObjectId(1)));
        run_interleaved(&mut ex, queues);
        let r = ex.finish("t", Composition::None);
        assert_eq!(r.counts.vertices, 2 * 9);
        assert!(r.gpm_busy[0] > 0 && r.gpm_busy[2] > 0);
        assert_eq!(r.gpm_busy[1], 0);
    }

    fn four_object_scene() -> oovr_scene::Scene {
        SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("a", |o| {
                o.rect(0.0, 0.0, 0.4, 0.4).grid(2, 2).texture("t", 1.0);
            })
            .object("b", |o| {
                o.rect(0.5, 0.0, 0.4, 0.4).grid(2, 2).texture("t", 1.0);
            })
            .object("c", |o| {
                o.rect(0.0, 0.5, 0.4, 0.4).grid(2, 2).texture("t", 1.0);
            })
            .object("d", |o| {
                o.rect(0.5, 0.5, 0.4, 0.4).grid(2, 2).texture("t", 1.0);
            })
            .build()
    }

    fn executor(scene: &oovr_scene::Scene) -> Executor<'_> {
        Executor::new(
            GpuConfig::default(),
            scene,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        )
    }

    fn units(objects: &[u32]) -> VecDeque<RenderUnit> {
        objects.iter().map(|&o| RenderUnit::smp(ObjectId(o))).collect()
    }

    /// Steps to completion, returning every report in order.
    fn drain<'s>(lanes: &mut Lanes<'s>, ex: &mut Executor<'s>) -> Vec<LotDone> {
        let mut done = Vec::new();
        while let Some(d) = lanes.step(ex) {
            done.extend(d);
        }
        done
    }

    #[test]
    fn clock_tie_goes_to_lowest_gpm() {
        let scene = four_object_scene();
        let mut ex = executor(&scene);
        let mut lanes = Lanes::new(4);
        lanes.push(3, units(&[0]), false);
        lanes.push(1, units(&[1]), false);
        lanes.push(2, units(&[2]), false);
        assert!(lanes.step(&mut ex).is_some());
        let now: Vec<u64> = (0..4).map(|g| ex.gpm(GpmId(g)).now).collect();
        assert!(now[1] > 0, "GPM 1 takes the tied first quantum: {now:?}");
        assert_eq!((now[2], now[3]), (0, 0), "{now:?}");
    }

    #[test]
    fn tracked_lot_reports_once_after_its_last_unit() {
        let scene = four_object_scene();
        let mut ex = executor(&scene);
        let mut lanes = Lanes::new(4);
        lanes.push(0, units(&[0]), false);
        let id = lanes.push(0, units(&[1, 2]), true).expect("tracked lot gets an id");
        lanes.push(1, units(&[3]), false);
        let mut start = None;
        let mut reports = Vec::new();
        loop {
            let before = *ex.gpm(GpmId(0));
            let starts_lot = !lanes.is_running(0)
                && lanes.queues[0].iter().find(|l| !l.units.is_empty()).and_then(|l| l.track)
                    == Some(id);
            let Some(d) = lanes.step(&mut ex) else { break };
            let stepped_gpm0 =
                lanes.is_running(0) || ex.gpm(GpmId(0)).units_done > before.units_done;
            if starts_lot && stepped_gpm0 && start.is_none() {
                start = Some(before);
            }
            if let Some(d) = d {
                // The lot's last unit just finished: nothing of it is left.
                assert!(!lanes.is_running(0) && lanes.queues[0].is_empty());
                assert_eq!(d.end.now, ex.gpm(GpmId(0)).now);
                reports.push(d);
            }
        }
        let [d] = reports[..] else { panic!("one report, got {}", reports.len()) };
        let start = start.expect("tracked lot ran");
        assert_eq!((d.gpm, d.track), (0, id));
        assert_eq!(
            (d.start.now, d.start.transformed_vertices, d.start.shaded_pixels),
            (start.now, start.transformed_vertices, start.shaded_pixels)
        );
        assert!(d.start.now > 0, "the untracked lot ran first");
        assert_eq!(d.end.units_done - d.start.units_done, 2);
    }

    #[test]
    fn moved_lot_keeps_its_track() {
        let scene = four_object_scene();
        let mut ex = executor(&scene);
        let mut lanes = Lanes::new(4);
        let a = lanes.push(0, units(&[0, 1]), true).expect("tracked");
        let b = lanes.push(0, units(&[2, 3]), true).expect("tracked");
        let moved = lanes.queues[0].pop_back().expect("rear lot");
        lanes.queues[2].push_back(moved);
        let mut done: Vec<(usize, usize)> =
            drain(&mut lanes, &mut ex).iter().map(|d| (d.track, d.gpm)).collect();
        done.sort_unstable();
        assert_eq!(done, vec![(a, 0), (b, 2)]);
        assert_eq!(ex.gpm(GpmId(2)).units_done, 2);
    }

    #[test]
    fn untracked_lots_report_nothing() {
        let scene = four_object_scene();
        let mut ex = executor(&scene);
        let mut lanes = Lanes::new(4);
        lanes.push(0, units(&[0, 1]), false);
        lanes.push(3, units(&[2]), false);
        lanes.push(3, units(&[3]), false);
        assert!(drain(&mut lanes, &mut ex).is_empty());
        let units_done: u32 = (0..4).map(|g| ex.gpm(GpmId(g)).units_done).sum();
        assert_eq!(units_done, 4);
        assert!(lanes.queues.iter().all(VecDeque::is_empty));
    }

    #[test]
    #[should_panic(expected = "one queue per GPM")]
    fn queue_count_must_match() {
        let scene = SceneBuilder::new(32, 32)
            .texture("t", 64, 64)
            .object("o", |o| {
                o.texture("t", 1.0);
            })
            .build();
        let mut ex = Executor::new(
            GpuConfig::default(),
            &scene,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        );
        run_interleaved(&mut ex, vec![VecDeque::new(); 2]);
    }
}
