//! Per-layer measurement from outside the program: deltas of the
//! `tsad-obs` metrics the crates already record. Nothing here adds tracing
//! inside the program.

/// `tsad-obs` values accumulated since [`ObsWindow::open`].
pub struct ObsWindow {
    snap: Option<tsad_obs::Snapshot>,
}

impl ObsWindow {
    /// Resets every registered metric and starts a window.
    pub fn open() -> Self {
        tsad_obs::reset_all();
        Self { snap: None }
    }

    /// Ends the window (snapshots the metrics).
    pub fn close(&mut self) {
        self.snap = Some(tsad_obs::snapshot());
    }

    fn snap(&self) -> &tsad_obs::Snapshot {
        self.snap.as_ref().expect("ObsWindow::close before reading")
    }

    /// `(count, sum)` of a histogram or span; zeros when it recorded nothing.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.snap()
            .histogram(name)
            .map_or((0, 0), |h| (h.count, h.sum))
    }

    /// Mean of a histogram or span, in its own unit; 0 when empty.
    pub fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// A counter's value; 0 when it recorded nothing.
    pub fn counter(&self, name: &str) -> u64 {
        self.snap().counter(name).unwrap_or(0)
    }
}

/// `tsad-parallel` worker figures summed over several obs windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelAcc {
    busy_ns: u64,
    wall_s: f64,
    waits: u64,
    wait_ns: u64,
}

impl ParallelAcc {
    /// Adds a closed window that covered `wall_s` seconds.
    pub fn add(&mut self, w: &ObsWindow, wall_s: f64) {
        self.busy_ns += w.hist("parallel.worker.busy_ns").1;
        self.wall_s += wall_s;
        let (n, sum) = w.hist("parallel.queue.wait_ns");
        self.waits += n;
        self.wait_ns += sum;
    }

    /// `(busy share of threads × wall, mean queue wait in µs)`.
    pub fn rows(&self) -> (f64, f64) {
        let threads = tsad_parallel::current_threads() as f64;
        let share = if self.wall_s > 0.0 {
            self.busy_ns as f64 / 1e9 / (self.wall_s * threads)
        } else {
            0.0
        };
        (share, self.wait_ns as f64 / self.waits.max(1) as f64 / 1e3)
    }
}
