//! The multi-GPM discrete-event executor.
//!
//! Schemes (the baselines in `oovr-frameworks` and OO-VR in `oovr`) submit
//! [`RenderUnit`]s to GPMs; the executor runs each unit through the pipeline
//! (command → geometry → SMP → raster → fragment → ROP), generating real
//! cache/NUMA memory traffic through [`oovr_mem::MemorySystem`] and applying
//! bandwidth contention per work quantum through [`oovr_mem::NumaTiming`].
//!
//! Time model: each GPM owns a clock. A unit executes as a sequence of
//! quanta; each quantum's duration is `max(compute, memory-ready)`, where
//! compute is the *slowest pipeline stage* touched by the quantum (stages
//! pipeline against each other) and memory-ready comes from the FIFO
//! bandwidth servers. Callers should execute units across GPMs in roughly
//! global time order (see [`Executor::least_loaded_gpm`]) so that shared
//! links see interleaved demand, as they would in hardware.

use oovr_mem::{
    Addr, Cycle, GpmId, MemConfig, MemorySystem, NumaTiming, Placement, RateSchedule, Traffic,
    TrafficClass,
};
use oovr_scene::{ObjectId, Resolution, Scene};
use oovr_trace::{Phase, Recorder, TraceConfig, TraceEvent};

use crate::config::{
    GpuConfig, ANISO_SPREAD, BYTES_PER_VERTEX, CMD_BYTES_PER_DRAW, MAX_FRAME_CYCLES,
    MAX_TEXEL_SAMPLES, QUAD_RATE, QUANTUM_QUADS, QUANTUM_VERTICES, RASTER_QUAD_RATE, ROP_RATE,
    SMP_RATE, TEXEL_SAMPLES_PER_QUAD, TRIANGLE_RATE, TXU_SAMPLES_PER_CYCLE, VERTEX_RATE,
};
use crate::error::GpuError;
use crate::layout::{SceneLayout, ZBuffer, FB_BYTES_PER_PIXEL};
use crate::raster::rasterize;
use crate::report::{FrameReport, WorkCounts};
use crate::tasks::{eye_clip, geometry_work, RenderUnit};
use crate::trace::ExecTracer;

/// How color outputs reach the final frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorMode {
    /// ROPs write straight to the framebuffer; page placement decides
    /// locality (baseline, AFR, tile schemes).
    Direct,
    /// ROPs write to a per-GPM local scratch; an explicit composition pass
    /// later moves pixels to the framebuffer (object-level SFR, OO-VR).
    Deferred,
}

/// Final-frame composition strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// No explicit composition (color was written in place).
    None,
    /// Conventional object-level SFR: every worker ships its outputs to the
    /// master node, whose ROPs assemble the frame alone (§4.3).
    Master(GpmId),
    /// OO-VR's distributed hardware composition: the framebuffer is split
    /// into vertical per-GPM partitions and all ROPs compose in parallel
    /// (§5.3, Fig. 14).
    Distributed,
}

/// Framebuffer organization: how FB/Z pages map onto GPM memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbOrg {
    /// Pages striped across GPMs (the baseline's single-GPU view).
    InterleavedPages,
    /// Whole framebuffer homed at one GPM (master-node composition).
    Single(GpmId),
    /// Vertical column partitions, one per GPM (tile-V, OO-VR's DHC).
    Columns,
    /// Horizontal row partitions, one per GPM (tile-H).
    Rows,
}

/// Per-GPM execution state, including the runtime counters the OO-VR
/// distribution engine reads (#tv and #pixel of Eq. 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct GpmState {
    /// This GPM's clock.
    pub now: Cycle,
    /// Busy cycles accumulated.
    pub busy: Cycle,
    /// Transformed vertices counter (`#tv`).
    pub transformed_vertices: u64,
    /// Shaded pixel counter (`#pixel`).
    pub shaded_pixels: u64,
    /// Triangles processed (post-SMP).
    pub triangles: u64,
    /// Units completed.
    pub units_done: u32,
    /// Pure compute cycles of geometry quanta (diagnostics).
    pub geom_compute: u64,
    /// Pure compute cycles of fragment quanta (diagnostics).
    pub frag_compute: u64,
    /// Cycles waiting on memory beyond compute (diagnostics).
    pub stall_cycles: u64,
    /// Number of advance() quanta (diagnostics).
    pub quanta: u64,
}

/// Snapshot of cumulative executor state at a frame boundary; created by
/// [`Executor::begin_frame`] and consumed by [`Executor::finish_frame`].
#[derive(Debug, Clone)]
pub struct FrameMark {
    traffic: Traffic,
    counts: WorkCounts,
    busy: Vec<Cycle>,
    start: Cycle,
}

/// A unit under resumable execution; created by
/// [`Executor::start_unit`] and driven by [`Executor::step_unit`].
/// Drivers create thousands of these per frame, so the scene's
/// [`oovr_scene::RenderObject`] is borrowed rather than cloned.
#[derive(Debug, Clone)]
pub struct RunningUnit<'s> {
    unit: RenderUnit,
    obj: &'s oovr_scene::RenderObject,
    gw: crate::tasks::GeometryWork,
    stage: UnitStage,
}

impl RunningUnit<'_> {
    /// The unit being executed.
    pub fn unit(&self) -> &RenderUnit {
        &self.unit
    }

    /// Whether execution has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.stage, UnitStage::Done)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitStage {
    Command,
    Geometry { fetched: u64 },
    Fragment { eye: usize, tri: u64 },
    Done,
}

/// The multi-GPM frame executor. See the [module docs](self).
#[derive(Debug)]
pub struct Executor<'s> {
    cfg: GpuConfig,
    scene: &'s Scene,
    layout: SceneLayout,
    mem: MemorySystem,
    fabric: NumaTiming,
    zbuf: ZBuffer,
    gpms: Vec<GpmState>,
    counts: WorkCounts,
    color_mode: ColorMode,
    fb_org: FbOrg,
    /// Deferred-composition pixel counts: `[renderer][partition]`.
    comp_pixels: Vec<Vec<u64>>,
    composition_cycles: Cycle,
    command_root: GpmId,
    /// Reusable drain buffer for per-quantum traffic (swapped with the
    /// memory system's pending ledger instead of allocating each quantum).
    scratch: Traffic,
    /// Precomputed [`partition_of_column`] per pixel column: the deferred
    /// color path looks an owner up per shaded pixel, and the two integer
    /// divides would otherwise dominate that inner loop.
    col_owner: Vec<u8>,
    /// Precomputed [`partition_of_row`] per pixel row.
    row_owner: Vec<u8>,
    /// Per-GPM pipeline-clock fault schedules (thermal throttling, stalls);
    /// `None` keeps the exact fixed-rate arithmetic.
    throttle: Vec<Option<RateSchedule>>,
    /// Per-GPM segment cursor into `throttle` from the last quantum: GPM
    /// clocks are monotone, so the schedule walk resumes where it left off.
    throttle_cursor: Vec<usize>,
    /// Fragment-compute scale in `(0, 1]`: the deadline monitor's foveation
    /// knob. `1.0` (the default) is bit-identical to the unscaled model.
    shade_scale: f64,
    /// Precomputed anisotropic sample offsets `s × ANISO_SPREAD` for
    /// `s in 0..TEXEL_SAMPLES_PER_QUAD`: the per-sample int→float convert
    /// and multiply would otherwise run once per quad sample. The same
    /// values as a const array, whose loop the compiler unrolls into the
    /// quad kernel, measured 0.5% slower on oobench's render workload.
    du_table: Vec<f32>,
    /// Flight recorder attached by [`enable_trace`](Self::enable_trace).
    /// `None` (the default) keeps every hot path on a single-branch fast
    /// path; tracing observes through shared references only, so enabling
    /// it cannot perturb simulated state.
    tracer: Option<Box<ExecTracer>>,
    /// Cumulative busy-cycle attribution `[object × n_gpms + gpm]`: every
    /// quantum's clock advance is charged to the unit's object on the GPM
    /// that ran it. The temporal-reuse layer diffs this across a frame to
    /// learn what skipping an object would save on each GPM.
    object_busy: Vec<Cycle>,
    /// Cumulative shaded-pixel attribution per object (both eyes): the
    /// pixel count an ATW reprojection of that object would warp.
    object_pixels: Vec<u64>,
}

impl<'s> Executor<'s> {
    /// Creates an executor for one frame of `scene`.
    ///
    /// `default_policy` governs pages without explicit placement (vertex
    /// buffers and textures): `FirstTouch` for NUMA schemes, `Replicated`
    /// for AFR's separate memory spaces. `fb_org` pins framebuffer and
    /// depth pages; `color_mode` selects in-place versus composed output.
    pub fn new(
        cfg: GpuConfig,
        scene: &'s Scene,
        default_policy: Placement,
        fb_org: FbOrg,
        color_mode: ColorMode,
    ) -> Self {
        match Self::try_new(cfg, scene, default_policy, fb_org, color_mode) {
            Ok(ex) => ex,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new): validates the configuration
    /// (including any fault plan) and reports violations as [`GpuError`]
    /// instead of panicking.
    pub fn try_new(
        cfg: GpuConfig,
        scene: &'s Scene,
        default_policy: Placement,
        fb_org: FbOrg,
        color_mode: ColorMode,
    ) -> Result<Self, GpuError> {
        cfg.validate()?;
        let n = cfg.n_gpms;
        let layout = SceneLayout::new(scene, n);
        let mut mem = MemorySystem::try_new(n, MemConfig::default(), default_policy)?;
        let mut fabric = NumaTiming::new(n, cfg.fabric_params());
        let res = scene.resolution();

        // Compile the fault plan into per-server schedules.
        let mut throttle = vec![None; n];
        if let Some(plan) = &cfg.fault {
            let compiled = plan.compile(n);
            for (from, to, s) in compiled.links {
                fabric.set_link_schedule(from, to, Some(s));
            }
            throttle = compiled.gpms;
        }

        // Pin framebuffer + depth placement.
        match fb_org {
            FbOrg::InterleavedPages => {
                mem.page_table_mut().set_policy(layout.framebuffer(), Placement::Interleaved);
                mem.page_table_mut().set_policy(layout.zbuffer(), Placement::Interleaved);
            }
            FbOrg::Single(root) => {
                mem.page_table_mut().set_policy(layout.framebuffer(), Placement::Fixed(root));
                mem.page_table_mut().set_policy(layout.zbuffer(), Placement::Fixed(root));
            }
            FbOrg::Columns => {
                Self::place_by_pixel(&mut mem, &layout, res, n, |x, _y| {
                    partition_of_column(x, res.stereo_width(), n)
                });
            }
            FbOrg::Rows => {
                Self::place_by_pixel(&mut mem, &layout, res, n, |_x, y| {
                    partition_of_row(y, res.height, n)
                });
            }
        }
        // The fragment kernel writes a quad row's passing pixels as one run
        // to one colour line: quads start on even x, so that holds when
        // every colour buffer's base and row pitch are multiples of a
        // pixel pair.
        assert!(
            layout.pixel_pairs_share_lines(),
            "colour buffers must keep each even-x pixel pair in one cache line"
        );
        // Scratch buffers are always local to their GPM.
        for g in 0..n {
            mem.page_table_mut().set_policy(layout.scratch(g), Placement::Fixed(GpmId(g as u8)));
        }

        Ok(Executor {
            cfg,
            scene,
            layout,
            mem,
            fabric,
            zbuf: ZBuffer::new(res.stereo_width(), res.height),
            gpms: vec![GpmState::default(); n],
            counts: WorkCounts::default(),
            color_mode,
            fb_org,
            comp_pixels: vec![vec![0; n]; n],
            composition_cycles: 0,
            command_root: GpmId(0),
            scratch: Traffic::new(n),
            col_owner: (0..res.stereo_width())
                .map(|x| partition_of_column(x, res.stereo_width(), n) as u8)
                .collect(),
            row_owner: (0..res.height).map(|y| partition_of_row(y, res.height, n) as u8).collect(),
            throttle_cursor: vec![0; throttle.len()],
            throttle,
            shade_scale: 1.0,
            du_table: (0..TEXEL_SAMPLES_PER_QUAD).map(|s| s as f32 * ANISO_SPREAD).collect(),
            tracer: None,
            object_busy: vec![0; scene.objects().len() * n],
            object_pixels: vec![0; scene.objects().len()],
        })
    }

    fn place_by_pixel(
        mem: &mut MemorySystem,
        layout: &SceneLayout,
        res: Resolution,
        n: usize,
        owner: impl Fn(u32, u32) -> usize,
    ) {
        // Home each FB/Z page at the owner of its midpoint pixel.
        let stereo_w = u64::from(res.stereo_width());
        for region in [layout.framebuffer(), layout.zbuffer()] {
            for page in region.pages() {
                let page_base = page * oovr_mem::PAGE_SIZE;
                let mid = page_base + oovr_mem::PAGE_SIZE / 2;
                let pixel = (mid.saturating_sub(region.base)) / FB_BYTES_PER_PIXEL;
                let x = (pixel % stereo_w) as u32;
                let y = (pixel / stereo_w) as u32;
                let g = owner(x, y.min(res.height - 1)).min(n - 1);
                mem.page_table_mut().migrate(oovr_mem::Addr(page_base), GpmId(g as u8));
            }
        }
    }

    /// The simulated scene.
    pub fn scene(&self) -> &Scene {
        self.scene
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The scene's memory layout.
    pub fn layout(&self) -> &SceneLayout {
        &self.layout
    }

    /// Number of GPMs.
    pub fn n_gpms(&self) -> usize {
        self.gpms.len()
    }

    /// Per-GPM state (clocks and Eq. 3 runtime counters).
    pub fn gpm(&self, g: GpmId) -> &GpmState {
        &self.gpms[g.index()]
    }

    /// The GPM whose clock is earliest (ties broken by lower id): the next
    /// GPM a global-time-ordered driver should feed.
    pub fn least_loaded_gpm(&self) -> GpmId {
        let (i, _) =
            self.gpms.iter().enumerate().min_by_key(|(_, s)| s.now).expect("at least one GPM");
        GpmId(i as u8)
    }

    /// Largest GPM clock (the rendering makespan so far).
    pub fn makespan(&self) -> Cycle {
        self.gpms.iter().map(|s| s.now).max().unwrap_or(0)
    }

    /// The prefix of a texture's allocation that `obj` actually samples:
    /// the object tiles the texture from texel row 0 up to its viewport
    /// height × uv-scale, so its footprint is a row-prefix of the linear
    /// texture layout. The PA units move only this required data (§5.2).
    pub fn touched_texture_region(
        &self,
        obj: &oovr_scene::RenderObject,
        tex: oovr_scene::TextureId,
    ) -> oovr_mem::Region {
        let res = self.scene.resolution();
        let vp = obj.viewport(res, oovr_scene::Eye::Left);
        let desc = self.scene.texture(tex);
        let extent = if obj.uv_transpose() { vp.width } else { vp.height };
        let rows = ((extent * obj.uv_scale()).ceil() as u64).clamp(1, u64::from(desc.height()));
        let bytes = rows * u64::from(desc.width()) * oovr_scene::texture::BYTES_PER_TEXEL;
        let r = self.layout.texture_region(tex);
        oovr_mem::Region { base: r.base, size: bytes.min(r.size) }
    }

    /// Pre-allocates an object's required data into a GPM's local DRAM
    /// (OO-VR PA units, §5.2). Vertex and texture data are static,
    /// read-only resources, so the PA unit *replicates* their pages at the
    /// consumer instead of migrating them — re-assigning a batch to another
    /// GPM (this frame or a later one) must not ping-pong pages back and
    /// forth. The copy consumes link bandwidth immediately but does not
    /// stall the GPM: the engine issues it ahead of the batch to hide the
    /// latency. Returns bytes moved.
    pub fn prealloc_object(&mut self, object: ObjectId, gpm: GpmId) -> u64 {
        // PA copies run in the background ahead of the batch ("pre-allocate
        // ... to hide long data copy latency", §5.2): they appear in the
        // traffic ledger but do not occupy the foreground link servers.
        let bytes = self.replicate_object_data(object, gpm);
        let cycle = self.gpms[gpm.index()].now;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(TraceEvent::PreAlloc {
                cycle,
                gpm: gpm.index() as u32,
                object: object.0,
                bytes,
            });
        }
        bytes
    }

    /// Replicates an object's data at a GPM (fine-grained stealing's data
    /// duplication, §5.2). Returns bytes copied.
    pub fn replicate_object(&mut self, object: ObjectId, gpm: GpmId) -> u64 {
        self.replicate_object_data(object, gpm)
    }

    /// Shared body of [`prealloc_object`](Self::prealloc_object) and
    /// [`replicate_object`](Self::replicate_object): replicates the vertex
    /// region and the touched prefix of each texture, then discards the
    /// pending ledger (the copies by-pass the foreground link servers).
    fn replicate_object_data(&mut self, object: ObjectId, gpm: GpmId) -> u64 {
        let obj = self.scene.object(object);
        let mut moved =
            self.mem.replicate_region(self.layout.vertex_region(object.0 as usize), gpm);
        for tu in obj.textures() {
            let touched = self.touched_texture_region(obj, tu.texture);
            moved += self.mem.replicate_region(touched, gpm);
        }
        self.mem.discard_pending();
        moved
    }

    /// Charges an explicit inter-GPM transfer (e.g. sort-middle primitive
    /// redistribution). The transfer occupies the link starting at the
    /// source's clock, and the destination cannot proceed before the data
    /// arrives — a synchronization point between the two GPMs.
    pub fn charge_transfer(&mut self, from: GpmId, to: GpmId, class: TrafficClass, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.mem.transfer(from, to, class, bytes);
        self.mem.drain_pending_into(&mut self.scratch);
        let start = self.gpms[from.index()].now;
        let ready = self.fabric.apply(start, &self.scratch);
        let d = to.index();
        if ready > self.gpms[d].now {
            self.gpms[d].busy += ready - self.gpms[d].now;
            self.gpms[d].now = ready;
        }
    }

    /// Advances `gpm`'s clock over one quantum: drains pending memory
    /// traffic into the fabric and takes `max(compute, memory)`.
    fn advance(&mut self, gpm: GpmId, compute_cycles: f64) {
        let g = gpm.index();
        let start = self.gpms[g].now;
        let ready = if self.mem.has_pending() {
            self.mem.drain_pending_into(&mut self.scratch);
            self.fabric.apply(start, &self.scratch)
        } else {
            start
        };
        // A throttled GPM retires compute at the schedule's rate; the `None`
        // path keeps the exact fixed-rate arithmetic.
        let compute_end = match &self.throttle[g] {
            None => start + compute_cycles.ceil() as Cycle,
            Some(s) => {
                let (end, cur) =
                    s.advance_with_hint(self.throttle_cursor[g], start as f64, compute_cycles);
                self.throttle_cursor[g] = cur;
                end.ceil() as Cycle
            }
        };
        let end = ready.max(compute_end);
        assert!(
            end < MAX_FRAME_CYCLES,
            "frame exceeded {MAX_FRAME_CYCLES} cycles — runaway configuration?"
        );
        self.gpms[g].stall_cycles += end.saturating_sub(compute_end);
        self.gpms[g].quanta += 1;
        self.gpms[g].busy += end - start;
        self.gpms[g].now = end;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.sample_windows(g, end, &self.fabric, &self.mem);
        }
    }

    /// Prepares a unit for resumable execution. Drivers should interleave
    /// [`step_unit`](Self::step_unit) calls across GPMs in global time order
    /// so the shared links see concurrent demand (a whole unit executed at
    /// once would let one GPM's clock run far ahead, and the FIFO bandwidth
    /// servers would mis-serialize the skewed arrivals).
    pub fn start_unit(&self, unit: &RenderUnit) -> RunningUnit<'s> {
        let obj = self.scene.object(unit.object);
        let gw = geometry_work(unit, obj);
        RunningUnit { unit: unit.clone(), obj, gw, stage: UnitStage::Command }
    }

    /// Executes one quantum of `ru` on `gpm`, advancing that GPM's clock.
    /// Returns `true` when the unit has completed.
    pub fn step_unit(&mut self, gpm: GpmId, ru: &mut RunningUnit<'_>) -> bool {
        let g = gpm.index();
        let slot = ru.unit.object.0 as usize * self.gpms.len() + g;
        if self.tracer.is_none() {
            let busy0 = self.gpms[g].busy;
            let done = self.step_unit_inner(gpm, ru);
            self.object_busy[slot] += self.gpms[g].busy - busy0;
            return done;
        }
        let phase = match ru.stage {
            UnitStage::Command => Phase::Command,
            UnitStage::Geometry { .. } => Phase::Geometry,
            UnitStage::Fragment { .. } => Phase::Fragment,
            UnitStage::Done => return true,
        };
        let object = ru.unit.object.0;
        let start = self.gpms[g].now;
        let busy0 = self.gpms[g].busy;
        let stall0 = self.gpms[g].stall_cycles;
        let done = self.step_unit_inner(gpm, ru);
        self.object_busy[slot] += self.gpms[g].busy - busy0;
        let end = self.gpms[g].now;
        if end > start {
            let stall = self.gpms[g].stall_cycles - stall0;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.quantum(g, object, phase, start, end, stall);
            }
        }
        done
    }

    /// The untraced body of [`step_unit`](Self::step_unit).
    fn step_unit_inner(&mut self, gpm: GpmId, ru: &mut RunningUnit<'_>) -> bool {
        let g = gpm.index();
        match ru.stage {
            UnitStage::Command => {
                if ru.unit.charge_command {
                    let (root, bytes) = (self.command_root, CMD_BYTES_PER_DRAW);
                    self.mem.transfer(root, gpm, TrafficClass::Command, bytes);
                    self.advance(gpm, 4.0);
                }
                ru.stage = UnitStage::Geometry { fetched: 0 };
                false
            }
            UnitStage::Geometry { fetched } => {
                let gw = ru.gw;
                if gw.vertices == 0 {
                    self.finish_geometry(g, gw);
                    ru.stage = UnitStage::Fragment { eye: 0, tri: 0 };
                    return false;
                }
                let n = (gw.vertices - fetched).min(QUANTUM_VERTICES);
                let vregion = self.layout.vertex_region(ru.unit.object.0 as usize);
                let byte0 = fetched * BYTES_PER_VERTEX;
                let byte1 = (fetched + n) * BYTES_PER_VERTEX;
                let mut b = byte0;
                while b < byte1.min(vregion.size) {
                    self.mem.read(gpm, vregion.at(b), TrafficClass::Vertex, true);
                    b += oovr_mem::LINE_SIZE;
                }
                let share = n as f64 / gw.vertices.max(1) as f64;
                let tri_in = gw.triangles as f64 * share;
                let tri_out = gw.smp_triangles_out as f64 * share;
                let compute =
                    (n as f64 / VERTEX_RATE).max(tri_in / TRIANGLE_RATE).max(tri_out / SMP_RATE);
                self.gpms[g].geom_compute += compute.ceil() as Cycle;
                self.advance(gpm, compute);
                if fetched + n >= gw.vertices {
                    self.finish_geometry(g, gw);
                    ru.stage = UnitStage::Fragment { eye: 0, tri: 0 };
                } else {
                    ru.stage = UnitStage::Geometry { fetched: fetched + n };
                }
                false
            }
            UnitStage::Fragment { eye, tri } => {
                let done = self.fragment_quantum(gpm, ru, eye, tri);
                if done {
                    self.gpms[g].units_done += 1;
                    ru.stage = UnitStage::Done;
                }
                done
            }
            UnitStage::Done => true,
        }
    }

    fn finish_geometry(&mut self, g: usize, gw: crate::tasks::GeometryWork) {
        self.gpms[g].transformed_vertices += gw.vertices;
        self.gpms[g].triangles += gw.smp_triangles_out;
        self.counts.vertices += gw.vertices;
        self.counts.triangles += gw.smp_triangles_out;
    }

    /// Processes up to one quad quantum of fragment work; updates `ru.stage`
    /// for resumption and returns `true` when all eyes are finished.
    fn fragment_quantum(
        &mut self,
        gpm: GpmId,
        ru: &mut RunningUnit<'_>,
        eye0: usize,
        tri0: u64,
    ) -> bool {
        let g = gpm.index();
        let res = self.scene.resolution();
        let eyes = ru.unit.mode.eyes();
        let mut pending_quads = 0u64;
        let mut pending_samples = 0u64;
        let mut pending_pixels = 0u64;
        let mut eye_idx = eye0;
        let mut tri_idx = tri0;
        let total_tris = ru.obj.triangle_count();
        'eyes: while eye_idx < eyes.len() {
            let eye = eyes[eye_idx];
            let eclip = eye_clip(res, eye);
            let clip = match ru.unit.clip {
                Some(c) => match c.intersect(&eclip) {
                    Some(i) => i,
                    None => {
                        eye_idx += 1;
                        tri_idx = 0;
                        continue 'eyes;
                    }
                },
                None => eclip,
            };
            // Triangles the unit does not select emit nothing, so walk only
            // the selected indices: clamp to the contiguous sub-range and
            // jump the iterator across the stride gaps instead of generating
            // and discarding the triangles in between.
            let (sel_start, sel_end) = match ru.unit.tri_range {
                Some((s, e)) => (s, e.min(total_tris)),
                None => (0, total_tris),
            };
            let (phase, step) = ru.unit.stride.unwrap_or((0, 1));
            // First index ≥ max(resume point, range start) on the stride.
            let lo = tri_idx.max(sel_start);
            let mut k = if step > 1 {
                let rem = lo % step;
                if rem <= phase {
                    lo - rem + phase
                } else {
                    lo - rem + step + phase
                }
            } else {
                lo
            };
            let mut tris = ru.obj.triangles_from(res, eye, k);
            while k < sel_end {
                let Some(tri) = tris.next() else { break };
                let this_k = k;
                debug_assert!(ru.unit.selects(this_k));
                k += step;
                if step > 1 {
                    tris.skip_to(k);
                }
                let desc = self.scene.texture(tri.texture);
                let tex_region = self.layout.texture_region(tri.texture);
                // Split borrows for the rasterization sink.
                let mem = &mut self.mem;
                let zbuf = &mut self.zbuf;
                let layout = &self.layout;
                let counts = &mut self.counts;
                let comp_row = &mut self.comp_pixels[g];
                let color_mode = self.color_mode;
                let fb_org = self.fb_org;
                let col_owner = &self.col_owner;
                let row_owner = &self.row_owner;
                let du_table = &self.du_table;
                let mut quads = 0u64;
                let mut samples = 0u64;
                let mut passed = 0u64;
                rasterize(&tri, Some(&clip), res.stereo_width(), res.height, |q| {
                    quads += 1;
                    counts.fragments += u64::from(q.coverage());
                    // Texture sampling: `TEXEL_SAMPLES_PER_QUAD` points
                    // spread along u (anisotropic footprint). All samples
                    // share the quad's texel row, so its base is hoisted.
                    // Consecutive samples in one line are one probe; the
                    // quad's probes go to memory as one batch.
                    let mut lines = [Addr(0); MAX_TEXEL_SAMPLES];
                    let mut n = 0;
                    let mut last_line = u64::MAX;
                    let row = desc.row_base(q.uv.y as i64);
                    for &du in du_table {
                        let off = row + desc.col_offset((q.uv.x + du) as i64);
                        let addr = tex_region.at(off.min(tex_region.size - 1));
                        if addr.line() != last_line {
                            last_line = addr.line();
                            lines[n] = addr;
                            n += 1;
                        }
                    }
                    mem.read_lines(gpm, &mut lines[..n], TrafficClass::Texture);
                    samples += n as u64;
                    // Depth test: read the Z line, write back if any pass.
                    let zaddr = layout.zb_addr(q.x, q.y);
                    mem.read(gpm, zaddr, TrafficClass::Depth, false);
                    let pass = zbuf.test_quad(q.x, q.y, q.mask, q.z);
                    if pass != 0 {
                        // A quad row's passing pixels share one colour line
                        // (checked in `try_new`), so they are one run of
                        // back-to-back writes.
                        for dy in 0..2 {
                            let run = (pass >> (2 * dy)) & 0b11;
                            if run == 0 {
                                continue;
                            }
                            let (px, py, k) =
                                (q.x + u32::from(run == 0b10), q.y + dy, run.count_ones());
                            match color_mode {
                                ColorMode::Direct => {
                                    let addr = layout.fb_addr(px, py);
                                    mem.write_n(gpm, addr, TrafficClass::Color, k);
                                }
                                ColorMode::Deferred => {
                                    let addr = layout.scratch_addr(g, px, py);
                                    mem.write_n(gpm, addr, TrafficClass::Color, k);
                                    let k = u64::from(k);
                                    match fb_org {
                                        FbOrg::Single(root) => comp_row[root.index()] += k,
                                        FbOrg::Rows => {
                                            comp_row[row_owner[py as usize] as usize] += k
                                        }
                                        _ => {
                                            // Column partitions can split a
                                            // quad when their width is odd.
                                            let a = col_owner[px as usize] as usize;
                                            let b =
                                                col_owner[(px + k as u32 - 1) as usize] as usize;
                                            if a == b {
                                                comp_row[a] += k;
                                            } else {
                                                comp_row[a] += 1;
                                                comp_row[b] += 1;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        mem.write(gpm, zaddr, TrafficClass::Depth);
                        passed += u64::from(pass.count_ones());
                    }
                });
                self.counts.quads += quads;
                self.counts.pixels_out += passed;
                self.gpms[g].shaded_pixels += passed;
                self.object_pixels[ru.unit.object.0 as usize] += passed;
                pending_quads += quads;
                pending_samples += samples;
                pending_pixels += passed;
                if pending_quads >= QUANTUM_QUADS {
                    // Quantum full: charge it and suspend after this triangle.
                    let compute =
                        self.fragment_compute(pending_quads, pending_samples, pending_pixels);
                    self.gpms[g].frag_compute += compute.ceil() as Cycle;
                    self.advance(gpm, compute);
                    ru.stage = UnitStage::Fragment { eye: eye_idx, tri: k };
                    return false;
                }
            }
            eye_idx += 1;
            tri_idx = 0;
        }
        if pending_quads > 0 {
            let compute = self.fragment_compute(pending_quads, pending_samples, pending_pixels);
            self.gpms[g].frag_compute += compute.ceil() as Cycle;
            self.advance(gpm, compute);
        }
        true
    }

    /// Executes one unit to completion on `gpm` (single-GPM drivers like
    /// AFR; multi-GPM drivers should interleave [`Self::step_unit`] instead).
    /// Returns the completion cycle.
    pub fn exec_unit(&mut self, gpm: GpmId, unit: &RenderUnit) -> Cycle {
        let mut ru = self.start_unit(unit);
        while !self.step_unit(gpm, &mut ru) {}
        self.gpms[gpm.index()].now
    }

    /// Slowest-stage compute time of a fragment quantum, scaled by the
    /// deadline monitor's foveation knob when active (`shade_scale < 1`
    /// models cheaper peripheral shading; every fragment is still produced).
    fn fragment_compute(&self, quads: u64, samples: u64, pixels: u64) -> f64 {
        let base = (quads as f64 / RASTER_QUAD_RATE)
            .max(quads as f64 / QUAD_RATE)
            .max(samples as f64 / TXU_SAMPLES_PER_CYCLE)
            .max(pixels as f64 / ROP_RATE);
        if self.shade_scale < 1.0 {
            base * self.shade_scale
        } else {
            base
        }
    }

    /// Sets the fragment-compute scale in `(0, 1]` (deadline-monitor load
    /// shedding, modeling foveated shading). `1.0` restores the exact
    /// unscaled model.
    pub fn set_shade_scale(&mut self, scale: f64) {
        assert!(scale > 0.0 && scale <= 1.0, "shade scale must be in (0, 1], got {scale}");
        self.shade_scale = scale;
        let cycle = self.makespan();
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(TraceEvent::ShadeScale { cycle, scale });
        }
    }

    /// The current fragment-compute scale.
    pub fn shade_scale(&self) -> f64 {
        self.shade_scale
    }

    /// Whether every incoming link of `gpm` is up at cycle `at`. The PA
    /// pre-allocation path probes this before copying data toward a GPM: a
    /// retraining link would stall the copy past its usefulness, so the
    /// engine backs off and ultimately falls back to remote rendering.
    pub fn gpm_reachable(&self, gpm: GpmId, at: Cycle) -> bool {
        GpmId::all(self.gpms.len())
            .filter(|&g| g != gpm)
            .all(|g| self.fabric.link_multiplier_at(g, gpm, at) > 0.0)
    }

    /// Runs the composition pass and returns the frame-complete cycle.
    ///
    /// With [`ColorMode::Direct`] and [`Composition::None`], the frame is
    /// done when the last GPM finishes rendering. The other modes move the
    /// deferred scratch pixels per §4.3 (master) or §5.3 (distributed).
    pub fn compose(&mut self, comp: Composition) -> Cycle {
        let start = self.makespan();
        let end = match comp {
            Composition::None => start,
            Composition::Master(root) => {
                let mut total_pixels = 0u64;
                for g in 0..self.gpms.len() {
                    let pixels: u64 = self.comp_pixels[g].iter().sum();
                    total_pixels += pixels;
                    self.mem.transfer(
                        GpmId(g as u8),
                        root,
                        TrafficClass::Composition,
                        pixels * FB_BYTES_PER_PIXEL,
                    );
                }
                // The root's ROPs assemble the whole frame alone.
                let rop_cycles = total_pixels as f64 / ROP_RATE;
                self.mem.drain_pending_into(&mut self.scratch);
                let ready = self.fabric.apply(start, &self.scratch);
                ready.max(start + rop_cycles.ceil() as Cycle)
            }
            Composition::Distributed => {
                let n = self.gpms.len();
                let mut received = vec![0u64; n];
                #[allow(clippy::needless_range_loop)] // g and p index two matrices
                for g in 0..n {
                    for p in 0..n {
                        let pixels = self.comp_pixels[g][p];
                        received[p] += pixels;
                        self.mem.transfer(
                            GpmId(g as u8),
                            GpmId(p as u8),
                            TrafficClass::Composition,
                            pixels * FB_BYTES_PER_PIXEL,
                        );
                    }
                }
                // Every GPM's ROPs work on their own partition in parallel.
                let rop_cycles =
                    received.iter().map(|&px| px as f64 / ROP_RATE).fold(0.0f64, f64::max);
                self.mem.drain_pending_into(&mut self.scratch);
                let ready = self.fabric.apply(start, &self.scratch);
                ready.max(start + rop_cycles.ceil() as Cycle)
            }
        };
        self.composition_cycles = end - start;
        if end > start {
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record(TraceEvent::CompositionSpan { start, end });
            }
        }
        end
    }

    /// Begins a new frame on a *warm* executor: clears the depth buffer and
    /// composition accumulators while keeping caches, page placement, and
    /// clocks. Use with [`finish_frame`](Self::finish_frame) to measure
    /// steady-state frames (the first frame pays one-time PA data
    /// distribution; later frames do not).
    pub fn begin_frame(&mut self) -> FrameMark {
        self.zbuf.clear();
        for row in &mut self.comp_pixels {
            row.fill(0);
        }
        self.composition_cycles = 0;
        FrameMark {
            traffic: self.mem.total_traffic().clone(),
            counts: self.counts,
            busy: self.gpms.iter().map(|s| s.busy).collect(),
            start: self.makespan(),
        }
    }

    /// Composes the frame begun at `mark` and reports its isolated metrics
    /// without consuming the executor. All GPM clocks synchronize to the
    /// composition end (the frame-present barrier).
    pub fn finish_frame(
        &mut self,
        mark: &FrameMark,
        scheme: &str,
        comp: Composition,
    ) -> FrameReport {
        let end = self.compose(comp);
        for s in &mut self.gpms {
            s.now = end;
        }
        let counts = WorkCounts {
            vertices: self.counts.vertices - mark.counts.vertices,
            triangles: self.counts.triangles - mark.counts.triangles,
            quads: self.counts.quads - mark.counts.quads,
            fragments: self.counts.fragments - mark.counts.fragments,
            pixels_out: self.counts.pixels_out - mark.counts.pixels_out,
        };
        let (l1, l2) = self.cache_hit_rates();
        FrameReport {
            scheme: scheme.to_string(),
            workload: self.scene.name().to_string(),
            frame_cycles: (end - mark.start).max(1),
            composition_cycles: self.composition_cycles,
            gpm_busy: self.gpms.iter().zip(&mark.busy).map(|(s, b0)| s.busy - b0).collect(),
            traffic: self.mem.total_traffic().since(&mark.traffic),
            counts,
            l1_hit_rate: l1,
            l2_hit_rate: l2,
            resident_bytes: self.mem.page_table().resident_bytes().to_vec(),
        }
    }

    /// Aggregate (cumulative) L1/L2 hit rates across GPMs.
    fn cache_hit_rates(&self) -> (f64, f64) {
        let n = self.gpms.len();
        let mut l1_acc = 0u64;
        let mut l1_hit = 0u64;
        let mut l2_acc = 0u64;
        let mut l2_hit = 0u64;
        for g in GpmId::all(n) {
            let s1 = self.mem.l1_stats(g);
            let s2 = self.mem.l2_stats(g);
            l1_acc += s1.accesses;
            l1_hit += s1.hits;
            l2_acc += s2.accesses;
            l2_hit += s2.hits;
        }
        (
            if l1_acc == 0 { 0.0 } else { l1_hit as f64 / l1_acc as f64 },
            if l2_acc == 0 { 0.0 } else { l2_hit as f64 / l2_acc as f64 },
        )
    }

    /// Builds the cumulative frame report at frame-complete cycle `end`.
    fn report_at(&self, end: Cycle, scheme: &str) -> FrameReport {
        let (l1, l2) = self.cache_hit_rates();
        FrameReport {
            scheme: scheme.to_string(),
            workload: self.scene.name().to_string(),
            frame_cycles: end.max(1),
            composition_cycles: self.composition_cycles,
            gpm_busy: self.gpms.iter().map(|s| s.busy).collect(),
            traffic: self.mem.total_traffic().clone(),
            counts: self.counts,
            l1_hit_rate: l1,
            l2_hit_rate: l2,
            resident_bytes: self.mem.page_table().resident_bytes().to_vec(),
        }
    }

    /// Composes and produces the frame report.
    pub fn finish(mut self, scheme: &str, comp: Composition) -> FrameReport {
        let end = self.compose(comp);
        self.report_at(end, scheme)
    }

    /// Like [`finish`](Self::finish), but also hands back the flight
    /// recorder when tracing was enabled. The report is identical to the one
    /// `finish` would produce: the tracer only observes.
    pub fn finish_traced(
        mut self,
        scheme: &str,
        comp: Composition,
    ) -> (FrameReport, Option<Recorder>) {
        let end = self.compose(comp);
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.finalize(end, &self.fabric, &self.mem);
        }
        let report = self.report_at(end, scheme);
        let recorder = self.tracer.take().map(|t| t.into_recorder());
        (report, recorder)
    }

    /// Attaches a flight recorder; subsequent execution records per-quantum
    /// phase spans, bandwidth/cache windows, and executor events. Retrieve
    /// the recorder via [`finish_traced`](Self::finish_traced).
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        let n = self.gpms.len();
        self.tracer = Some(Box::new(ExecTracer::new(cfg, n)));
    }

    /// Mutable access to the attached recorder, if tracing is enabled. The
    /// distribution engine uses this to record its scheduling decisions
    /// alongside the executor's spans.
    pub fn tracer_mut(&mut self) -> Option<&mut Recorder> {
        self.tracer.as_deref_mut().map(ExecTracer::recorder_mut)
    }

    /// Current work counters.
    pub fn counts(&self) -> WorkCounts {
        self.counts
    }

    /// Cumulative per-object busy attribution, flattened
    /// `[object × n_gpms + gpm]`. Diff two snapshots to isolate one frame.
    pub fn object_busy(&self) -> &[Cycle] {
        &self.object_busy
    }

    /// Cumulative shaded pixels per object (both eyes).
    pub fn object_pixels(&self) -> &[u64] {
        &self.object_pixels
    }

    /// Cumulative traffic so far.
    pub fn traffic(&self) -> &Traffic {
        self.mem.total_traffic()
    }
}

/// Vertical-partition owner of a pixel column (Fig. 14's framebuffer split).
pub fn partition_of_column(x: u32, stereo_width: u32, n: usize) -> usize {
    let w = (stereo_width as usize).div_ceil(n);
    ((x as usize) / w).min(n - 1)
}

/// Horizontal-partition owner of a pixel row.
pub fn partition_of_row(y: u32, height: u32, n: usize) -> usize {
    let h = (height as usize).div_ceil(n);
    ((y as usize) / h).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultScenario};
    use oovr_scene::{Eye, Rect, SceneBuilder};
    use proptest::prelude::*;

    fn scene() -> Scene {
        SceneBuilder::new(64, 64)
            .name("exec-test")
            .texture("stone", 128, 128)
            .texture("cloth", 64, 64)
            .object("a", |o| {
                o.rect(0.1, 0.1, 0.5, 0.5).grid(4, 4).depth(0.4).texture("stone", 1.0);
            })
            .object("b", |o| {
                o.rect(0.3, 0.3, 0.5, 0.5).grid(4, 4).depth(0.6).texture("cloth", 1.0);
            })
            .build()
    }

    fn executor(scene: &Scene) -> Executor<'_> {
        Executor::new(
            GpuConfig::default(),
            scene,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        )
    }

    #[test]
    fn unit_produces_work_and_time() {
        let s = scene();
        let mut ex = executor(&s);
        let end = ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        assert!(end > 0);
        let c = ex.counts();
        assert_eq!(c.vertices, 25);
        assert_eq!(c.triangles, 64, "SMP emits both eyes");
        assert!(c.fragments > 0);
        assert!(c.pixels_out > 0);
        assert!(ex.traffic().local_bytes() > 0);
        assert_eq!(ex.gpm(GpmId(0)).transformed_vertices, 25);
        assert!(ex.gpm(GpmId(0)).shaded_pixels > 0);
    }

    #[test]
    fn occlusion_reduces_color_output() {
        let s = scene();
        let mut ex = executor(&s);
        // Nearer object first; the farther object then fails Z where they
        // overlap.
        ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let first_out = ex.counts().pixels_out;
        ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(1)));
        let second_out = ex.counts().pixels_out - first_out;
        assert!(second_out < ex.counts().fragments - first_out, "some fragments occluded");
    }

    #[test]
    fn smp_unit_beats_sequential_stereo() {
        let s = scene();
        let mut ex1 = executor(&s);
        ex1.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let smp_end = ex1.makespan();
        let smp_frags = ex1.counts().fragments;

        let mut ex2 = executor(&s);
        ex2.exec_unit(GpmId(0), &RenderUnit::single(ObjectId(0), Eye::Left));
        ex2.exec_unit(GpmId(0), &RenderUnit::single(ObjectId(0), Eye::Right));
        let seq_end = ex2.makespan();
        assert_eq!(ex2.counts().fragments, smp_frags, "same fragments either way");
        assert!(seq_end > smp_end, "sequential stereo is slower (seq {seq_end} vs smp {smp_end})");
    }

    #[test]
    fn remote_placement_slows_execution() {
        let s = scene();
        // All data local to GPM1, but GPM0 renders: every miss is remote.
        let mut remote = Executor::new(
            GpuConfig::default(),
            &s,
            Placement::Fixed(GpmId(1)),
            FbOrg::Single(GpmId(1)),
            ColorMode::Direct,
        );
        remote.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let remote_end = remote.makespan();
        assert!(remote.traffic().inter_gpm_bytes() > 0);

        // Local case: everything (including FB/Z) homed where it is used.
        let mut local = Executor::new(
            GpuConfig::default(),
            &s,
            Placement::FirstTouch,
            FbOrg::Single(GpmId(0)),
            ColorMode::Direct,
        );
        local.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let local_end = local.makespan();
        assert_eq!(local.traffic().inter_gpm_bytes(), 0, "first touch keeps all local");
        assert!(remote_end > local_end, "remote {remote_end} vs local {local_end}");
    }

    #[test]
    fn clipped_units_cover_disjoint_work() {
        let s = scene();
        let mut full = executor(&s);
        full.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let full_frags = full.counts().fragments;

        let mut halves = executor(&s);
        let left = Rect::new(0.0, 0.0, 64.0, 64.0);
        let right = Rect::new(64.0, 0.0, 64.0, 64.0);
        halves.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)).clipped(left));
        halves.exec_unit(GpmId(1), &RenderUnit::smp(ObjectId(0)).clipped(right).without_command());
        assert_eq!(halves.counts().fragments, full_frags, "strips tile the frame");
    }

    #[test]
    fn tri_ranges_partition_the_object() {
        let s = scene();
        let mut split = executor(&s);
        let total = s.object(ObjectId(0)).triangle_count();
        split.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)).with_tri_range(0, total / 2));
        split.exec_unit(
            GpmId(1),
            &RenderUnit::smp(ObjectId(0)).with_tri_range(total / 2, total).without_command(),
        );
        let mut full = executor(&s);
        full.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        assert_eq!(split.counts().fragments, full.counts().fragments);
        assert_eq!(split.counts().triangles, full.counts().triangles);
    }

    #[test]
    fn deferred_master_composition_charges_links_and_root_rops() {
        let s = scene();
        let mut ex = Executor::new(
            GpuConfig::default(),
            &s,
            Placement::FirstTouch,
            FbOrg::Single(GpmId(0)),
            ColorMode::Deferred,
        );
        ex.exec_unit(GpmId(1), &RenderUnit::smp(ObjectId(0)));
        let render_end = ex.makespan();
        let pre_comp_traffic = ex.traffic().remote_of(TrafficClass::Composition);
        assert_eq!(pre_comp_traffic, 0);
        let end = ex.compose(Composition::Master(GpmId(0)));
        assert!(end > render_end);
        assert!(ex.traffic().remote_of(TrafficClass::Composition) > 0);
    }

    #[test]
    fn distributed_composition_splits_across_partitions() {
        let s = scene();
        let mut ex = Executor::new(
            GpuConfig::default(),
            &s,
            Placement::FirstTouch,
            FbOrg::Columns,
            ColorMode::Deferred,
        );
        ex.exec_unit(GpmId(1), &RenderUnit::smp(ObjectId(0)));
        let report = ex.finish("t", Composition::Distributed);
        // Some pixels land in partitions other than GPM1's: link traffic.
        assert!(report.traffic.remote_of(TrafficClass::Composition) > 0);
        assert!(report.composition_cycles > 0);
        assert!(report.frame_cycles >= report.composition_cycles);
    }

    #[test]
    fn prealloc_localizes_a_migrated_object() {
        let s = scene();
        let mut ex = executor(&s);
        // First touch by GPM0...
        ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let before = ex.traffic().inter_gpm_bytes();
        // ...then pre-allocate to GPM2 and render there: no new remote
        // texture traffic beyond the PA copy itself.
        let moved = ex.prealloc_object(ObjectId(0), GpmId(2));
        assert!(moved > 0);
        ex.exec_unit(GpmId(2), &RenderUnit::smp(ObjectId(0)).without_command());
        let after = ex.traffic();
        assert_eq!(after.remote_of(TrafficClass::PreAlloc), moved);
        // Texture/vertex reads from GPM2 stayed local (Z pages may still be
        // remote, so compare texture class only).
        assert_eq!(
            after.remote_of(TrafficClass::Texture),
            0,
            "inter-GPM before {before}, after {}",
            after.inter_gpm_bytes()
        );
    }

    #[test]
    fn frame_boundaries_isolate_metrics() {
        let s = scene();
        let mut ex = Executor::new(
            GpuConfig::default(),
            &s,
            Placement::FirstTouch,
            FbOrg::Columns,
            ColorMode::Deferred,
        );
        let m1 = ex.begin_frame();
        ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let f1 = ex.finish_frame(&m1, "t", Composition::Distributed);
        let m2 = ex.begin_frame();
        ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let f2 = ex.finish_frame(&m2, "t", Composition::Distributed);
        // Same work per frame.
        assert_eq!(f1.counts.fragments, f2.counts.fragments);
        assert_eq!(f1.counts.vertices, f2.counts.vertices);
        // Warm frame re-reads less memory (caches + page placement persist).
        assert!(f2.traffic.local_bytes() <= f1.traffic.local_bytes());
        assert!(f2.frame_cycles <= f1.frame_cycles);
        // Clocks synchronized at the frame barrier.
        let now0 = ex.gpm(GpmId(0)).now;
        for g in 1..4 {
            assert_eq!(ex.gpm(GpmId(g)).now, now0);
        }
    }

    #[test]
    fn running_unit_reports_state() {
        let s = scene();
        let ex = Executor::new(
            GpuConfig::default(),
            &s,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        );
        let ru = ex.start_unit(&RenderUnit::smp(ObjectId(0)));
        assert!(!ru.is_done());
        assert_eq!(ru.unit().object, ObjectId(0));
    }

    #[test]
    fn throttled_gpm_runs_slower() {
        use crate::fault::{FaultPlan, FaultScenario};
        let s = scene();
        let mut healthy = executor(&s);
        healthy.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let healthy_end = healthy.makespan();

        // Seed 0 victimizes GPM0, where the unit runs.
        let plan = FaultPlan::new(FaultScenario::GpmThrottle, 0.8, 0);
        assert_eq!(plan.victim(4), GpmId(0));
        let mut faulted = Executor::new(
            GpuConfig::default().with_fault(plan),
            &s,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        );
        faulted.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        assert!(
            faulted.makespan() > healthy_end,
            "throttled {} vs healthy {healthy_end}",
            faulted.makespan()
        );
        // Same functional output either way.
        assert_eq!(faulted.counts().fragments, healthy.counts().fragments);
        assert_eq!(faulted.counts().pixels_out, healthy.counts().pixels_out);
    }

    #[test]
    fn noop_fault_plan_is_bit_identical() {
        use crate::fault::FaultPlan;
        let s = scene();
        let mut plain = executor(&s);
        plain.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let mut noop = Executor::new(
            GpuConfig::default().with_fault(FaultPlan::none()),
            &s,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        );
        noop.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        assert_eq!(plain.makespan(), noop.makespan());
        assert_eq!(plain.traffic().local_bytes(), noop.traffic().local_bytes());
    }

    #[test]
    fn reachability_follows_link_outages() {
        use crate::fault::{FaultPlan, FaultScenario};
        let s = scene();
        let plan = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3);
        let v = plan.victim(4);
        let ex = Executor::new(
            GpuConfig::default().with_fault(plan.clone()),
            &s,
            Placement::FirstTouch,
            FbOrg::InterleavedPages,
            ColorMode::Direct,
        );
        // Far past the horizon every link has retrained.
        assert!(ex.gpm_reachable(v, plan.horizon * 4));
        // At some cycle inside the horizon the victim is unreachable.
        let wl = plan.horizon / 8;
        let blocked = (0..8u64).any(|w| !ex.gpm_reachable(v, w * wl));
        assert!(blocked, "severity-1 link-down leaves the victim unreachable at some point");
    }

    #[test]
    fn shade_scale_shrinks_fragment_time_only() {
        let s = scene();
        let mut full = executor(&s);
        full.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let mut shed = executor(&s);
        shed.set_shade_scale(0.5);
        shed.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        assert!(shed.makespan() < full.makespan());
        // Every fragment still rendered (foveation reduces cost, not work).
        assert_eq!(shed.counts().fragments, full.counts().fragments);
        assert_eq!(shed.counts().pixels_out, full.counts().pixels_out);
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let s = scene();
        let try_new = |cfg| {
            Executor::try_new(
                cfg,
                &s,
                Placement::FirstTouch,
                FbOrg::InterleavedPages,
                ColorMode::Direct,
            )
        };
        let cfg = GpuConfig { n_gpms: 17, ..GpuConfig::default() };
        assert!(matches!(try_new(cfg), Err(GpuError::Mem(_))));
        let cfg = GpuConfig { link_gbps: -1.0, ..GpuConfig::default() };
        assert!(matches!(try_new(cfg), Err(GpuError::InvalidConfig(_))));
        let cfg = GpuConfig::default().with_link_gbps(0.0);
        assert!(matches!(try_new(cfg), Err(GpuError::InvalidConfig(_))));
        let cfg = GpuConfig::default().with_fault(FaultPlan::new(FaultScenario::LinkDown, -0.5, 0));
        assert!(matches!(try_new(cfg), Err(GpuError::InvalidFault(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every settable value, from the degenerate to the absurd: a
        /// config builds exactly when it validates, a rejected one reports
        /// `validate`'s typed error instead of panicking, and an accepted
        /// one renders one SMP unit of the test scene inside the
        /// `MAX_FRAME_CYCLES` runaway guard.
        #[test]
        fn try_new_builds_exactly_what_validates(
            n_gpms in 0usize..21,
            link in 0usize..9,
            fault in (0usize..6, 0usize..6, 0usize..5, 0u64..64),
        ) {
            const LINK_GBPS: [f64; 9] =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 1e-300, 1e-9, 64.0, 1e300];
            const SEVERITY: [f64; 6] = [f64::NAN, -0.5, 0.0, 0.3, 1.0, 1.5];
            const HORIZON: [Cycle; 5] = [0, 1, 8, 1000, u64::MAX];
            let (scenario, severity, horizon, seed) = fault;
            // One index past the scenarios draws no plan at all.
            let fault = FaultScenario::ALL.get(scenario).map(|&sc| {
                FaultPlan::new(sc, SEVERITY[severity], seed).with_horizon(HORIZON[horizon])
            });
            let cfg = GpuConfig { n_gpms, link_gbps: LINK_GBPS[link], fault };
            let s = scene();
            let built = Executor::try_new(
                cfg.clone(),
                &s,
                Placement::FirstTouch,
                FbOrg::InterleavedPages,
                ColorMode::Direct,
            );
            match built {
                Ok(mut ex) => {
                    prop_assert!(cfg.validate().is_ok(), "{:?}", cfg);
                    ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
                }
                Err(e) => prop_assert_eq!(Some(e), cfg.validate().err(), "{:?}", cfg),
            }
        }
    }

    #[test]
    fn object_attribution_partitions_busy_and_pixels() {
        let s = scene();
        let mut ex = executor(&s);
        ex.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        ex.exec_unit(GpmId(1), &RenderUnit::smp(ObjectId(1)));
        let n = ex.n_gpms();
        // Every quantum was charged to exactly one (object, gpm) slot, so
        // summing over objects recovers each GPM's busy counter.
        for g in 0..n {
            let per_gpm: Cycle = (0..s.objects().len()).map(|o| ex.object_busy()[o * n + g]).sum();
            assert_eq!(per_gpm, ex.gpm(GpmId(g as u8)).busy);
        }
        let px: u64 = ex.object_pixels().iter().sum();
        assert_eq!(px, ex.counts().pixels_out);
        assert!(ex.object_busy()[0] > 0, "object 0 ran on GPM 0");
        assert!(ex.object_pixels().iter().all(|&p| p > 0));
    }

    #[test]
    fn object_attribution_is_identical_under_tracing() {
        let s = scene();
        let mut plain = executor(&s);
        plain.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        let mut traced = executor(&s);
        traced.enable_trace(TraceConfig::default());
        traced.exec_unit(GpmId(0), &RenderUnit::smp(ObjectId(0)));
        assert_eq!(plain.object_busy(), traced.object_busy());
        assert_eq!(plain.object_pixels(), traced.object_pixels());
    }

    #[test]
    fn partition_helpers_cover_range() {
        assert_eq!(partition_of_column(0, 128, 4), 0);
        assert_eq!(partition_of_column(127, 128, 4), 3);
        assert_eq!(partition_of_row(0, 64, 4), 0);
        assert_eq!(partition_of_row(63, 64, 4), 3);
    }
}
