//! R5 fixture: an engine that buffers before logging, and checkpoints and
//! cuts the WAL without covering the dropped data.

pub struct Engine {
    wal: Wal,
    buffers: Buffers,
}

impl Engine {
    // VIOLATION: the point is buffered before it enters the log; a crash
    // after the batch is acknowledged loses it.
    pub fn put(&mut self, series: u32, p: Point) -> Result<(), Error> {
        self.buffers.insert(p);
        self.wal.append_for(series, &p)?;
        Ok(())
    }

    // VIOLATION: the checkpoint supersedes the flushed range of the series
    // with no manifest record or flushing registration covering what was in
    // it.
    pub fn flush(&mut self) -> Result<(), Error> {
        let flushed = self.buffers.take_full();
        self.wal
            .checkpoint(0, flushed, &self.buffers.scan(flushed))?;
        Ok(())
    }

    // VIOLATION: so does the cut.
    pub fn rest(&mut self) -> Result<(), Error> {
        self.wal.rewrite(&[])?;
        Ok(())
    }
}
