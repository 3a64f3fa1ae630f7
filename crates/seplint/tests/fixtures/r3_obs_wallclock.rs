//! R3 fixture: an observer sink that stamps events with the wall clock
//! instead of numbering them by sequence — exactly the nondeterminism the
//! observability layer must not reintroduce into the kernel.

use std::time::SystemTime;

pub struct WallClockSink {
    lines: Vec<String>,
}

impl WallClockSink {
    pub fn observe(&mut self, event_name: &str) {
        let ts = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros())
            .unwrap_or_default();
        self.lines.push(format!("{ts} {event_name}"));
    }
}
