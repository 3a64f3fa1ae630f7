//! R6 fixture: tmp-write-then-rename publication patterns, with and without
//! the parent-directory fsync that makes the new name itself durable, and
//! fsyncs with and without the fault-plan hook that counts them.

pub struct Store {
    dir: PathBuf,
}

impl Store {
    // VIOLATION: the file contents are fsynced, but the directory entry
    // created by the rename is not — a crash can make the table vanish.
    pub fn put_unsynced(&self, id: u64, bytes: &[u8]) -> Result<(), Error> {
        let tmp = self.dir.join(format!("{id}.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.dir.join(format!("{id}.sst")))?;
        Ok(())
    }

    // Compliant: rename is followed by a parent-directory sync.
    pub fn put_synced(&self, id: u64, bytes: &[u8]) -> Result<(), Error> {
        let tmp = self.dir.join(format!("{id}.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.dir.join(format!("{id}.sst")))?;
        fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    // VIOLATION: the tmp file's fsync has no fault-plan hook in front of
    // it, so no I/O trace counts it and no crash schedule can land on it.
    pub fn put_uncounted(&self, id: u64, bytes: &[u8]) -> Result<(), Error> {
        let tmp = self.dir.join(format!("{id}.tmp"));
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fault::hook(self.faults.as_ref(), IoOp::StoreRename)?;
        std::fs::rename(&tmp, self.dir.join(format!("{id}.sst")))?;
        fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    // VIOLATION: the tmp file's fsync is counted, but the directory fsync
    // rides on the rename's hook — every fsync needs a hook of its own,
    // between it and the previous fsync or rename.
    pub fn put_half_hooked(&self, id: u64, bytes: &[u8]) -> Result<(), Error> {
        let tmp = self.dir.join(format!("{id}.tmp"));
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        fault::hook(self.faults.as_ref(), IoOp::StoreSync)?;
        f.sync_all()?;
        fault::hook(self.faults.as_ref(), IoOp::StoreRename)?;
        std::fs::rename(&tmp, self.dir.join(format!("{id}.sst")))?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    // Compliant: the hooked write pays for the fsync of what it wrote.
    pub fn rewrite(&self, bytes: &[u8]) -> Result<(), Error> {
        let tmp = self.dir.join("log.tmp");
        fault::write_hooked(
            self.faults.as_ref(),
            IoOp::WalRewrite,
            &tmp,
            bytes,
            || File::create(&tmp),
        )?
        .sync_all()?;
        fault::hook(self.faults.as_ref(), IoOp::WalRename)?;
        std::fs::rename(&tmp, self.dir.join("log"))?;
        fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    // Suppressed: an open-time repair runs before any plan can be attached.
    pub fn repair(&self, len: u64) -> Result<(), Error> {
        let f = File::open(&self.dir.join("log"))?;
        f.set_len(len)?;
        // seplint: allow(R6): fixture exercising the suppression path
        f.sync_all()?;
        Ok(())
    }

    // Suppressed: the directive acknowledges the missing sync.
    pub fn put_suppressed(&self, id: u64, bytes: &[u8]) -> Result<(), Error> {
        let tmp = self.dir.join(format!("{id}.tmp"));
        std::fs::write(&tmp, bytes)?;
        // seplint: allow(R6): fixture exercising the suppression path
        std::fs::rename(&tmp, self.dir.join(format!("{id}.sst")))?;
        Ok(())
    }
}

// Exempt by name: this *is* the durability primitive R6 asks for.
pub fn sync_dir(dir: &Path) -> Result<(), Error> {
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}
