//! R5 fixture: horizons that record tables in the manifest before those
//! tables are durable, and a checkpoint that only a manifest record, not a
//! commit of synced tables, precedes.

pub struct Engine {
    store: Store,
    wal: Wal,
    manifest: Manifest,
    version: Version,
}

impl Engine {
    // VIOLATION (twice): the manifest names tables a crash may still take
    // back, and the checkpoint behind that commit lets the log go of the
    // only durable copy of their points.
    fn horizon(&mut self) -> Result<(), Error> {
        let edits = self.version.net_change();
        self.manifest.commit_or_rewrite(&edits, &[], &[])?;
        self.store.sync_published(&self.version.unsynced())?;
        self.wal.checkpoint(0, self.version.flushed(), &[])?;
        Ok(())
    }

    // VIOLATION: a record is not a commit of synced tables; only the cut
    // may lean on one.
    fn checkpoint_after_record(&mut self) -> Result<(), Error> {
        self.version.record(&mut self.manifest, &[])?;
        self.wal.checkpoint(0, self.version.flushed(), &[])?;
        self.wal.rewrite(&[])?;
        Ok(())
    }

    // VIOLATION: the fleet's commit is a manifest commit like any other.
    fn fleet_horizon(&mut self, groups: &Groups) -> Result<(), Error> {
        self.manifest.commit_fleet(groups, &[])?;
        Ok(())
    }

    // Compliant: tables durable, then the manifest, then the log.
    fn horizon_in_order(&mut self) -> Result<(), Error> {
        self.store.sync_published(&self.version.unsynced())?;
        let edits = self.version.net_change();
        self.manifest.commit_or_rewrite(&edits, &[], &[])?;
        self.wal.checkpoint(0, self.version.flushed(), &[])?;
        Ok(())
    }
}
