//! R5 fixture: a fleet whose horizon lets the log go first. Its series
//! keep neither log nor manifest, so nothing they report covers a
//! checkpoint: only the fleet manifest's own `commit_fleet` does.

pub struct Fleet {
    store: Store,
    wal: Wal,
    fleet_manifest: Manifest,
    series: Series,
}

impl Fleet {
    // VIOLATION: the series is checkpointed — and the log cut — before the
    // group that records its flush is in the fleet manifest; a crash in
    // between recovers the old version and a log that no longer holds what
    // the uncommitted tables took out of memory.
    fn commit_pending(&mut self) -> Result<(), Error> {
        let groups = self.series.pending_groups();
        self.store.sync_published(&self.series.unsynced())?;
        for (series, range, in_range) in self.series.flushed() {
            if self.wal.checkpoint(series, range, &in_range)? {
                self.wal.rewrite(&self.series.survivors())?;
            }
        }
        self.fleet_manifest.commit_fleet(&groups, &self.series.live())?;
        Ok(())
    }

    // Compliant: the tables are synced, then the group that names them is
    // durable, then the log lets go.
    fn commit_in_order(&mut self) -> Result<(), Error> {
        let groups = self.series.pending_groups();
        self.store.sync_published(&self.series.unsynced())?;
        self.fleet_manifest.commit_fleet(&groups, &self.series.live())?;
        for (series, range, in_range) in self.series.flushed() {
            self.wal.checkpoint(series, range, &in_range)?;
        }
        Ok(())
    }
}
