package faults

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/wal"
)

// Fatal hits SIGKILL the process, so everything here arms thresholds the
// test never reaches; the kill-and-recover harness in internal/experiments
// exercises the fatal path in a re-exec'd child.

func TestArmKillPointsCounts(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	if err := ArmKillPoints("ckpt.append.torn:5, other.point:2"); err != nil {
		t.Fatalf("ArmKillPoints: %v", err)
	}
	Hit("ckpt.append.torn")
	Hit("ckpt.append.torn")
	Hit("unarmed.point")
	if got := KillPointHits("ckpt.append.torn"); got != 2 {
		t.Fatalf("KillPointHits = %d, want 2", got)
	}
	// Unarmed points still count once any arming happened — they are live
	// call sites, just not fatal ones.
	if got := KillPointHits("unarmed.point"); got != 1 {
		t.Fatalf("KillPointHits(unarmed) = %d, want 1", got)
	}
}

func TestHitWithoutArmingIsFree(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	Hit("anything")
	if got := KillPointHits("anything"); got != 0 {
		t.Fatalf("unarmed process counted hits: %d", got)
	}
}

func TestArmKillPointsRejectsBadSpecs(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	for _, spec := range []string{"nocount", "point:", "point:0", "point:-1", "point:x"} {
		ResetKillPoints()
		if err := ArmKillPoints(spec); err == nil {
			t.Errorf("ArmKillPoints(%q) accepted", spec)
		}
	}
	ResetKillPoints()
	if err := ArmKillPoints(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

func TestPFSOpKillPointsObserveDataPath(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	// Threshold far above anything the workload performs: the hook must
	// observe and count operations without killing.
	if err := ArmKillPoints("pfs.op.write:100000"); err != nil {
		t.Fatalf("ArmKillPoints: %v", err)
	}
	meta := recorder.Meta{App: "kill-test", Ranks: 2, PPN: 2, Seed: 1}
	res, err := harness.Run(harness.Config{Ranks: 2, PPN: 2, Seed: 1}, meta, func(c *harness.Ctx) error {
		fd, err := c.OS.Open("/k.dat", recorder.OCreat|recorder.OWronly, 0o644)
		if err != nil {
			return err
		}
		if _, err := c.OS.Pwrite(fd, make([]byte, 32), int64(c.Rank)*32); err != nil {
			return err
		}
		return c.OS.Close(fd)
	})
	if err != nil {
		t.Fatalf("harness.Run: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("rank error: %v", err)
	}
	if got := KillPointHits("pfs.op.write"); got < 2 {
		t.Fatalf("pfs.op.write hits = %d, want >= 2 (one write per rank)", got)
	}
	if got := KillPointHits("pfs.op.close"); got < 2 {
		t.Fatalf("pfs.op.close hits = %d, want >= 2", got)
	}
}

// TestWALKillPointsFireThroughStorageHook: arming a "wal."-prefixed point
// installs the storage kill-point hook, and the WAL reports every append
// stage and drain publish through it — once per acknowledged write.
func TestWALKillPointsFireThroughStorageHook(t *testing.T) {
	t.Cleanup(ResetKillPoints)
	ResetKillPoints()
	if err := ArmKillPoints("wal.append.torn:1000000"); err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h, _, err := fs.NewClient(0, 0).Open("/f", pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(0, wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 3
	for i := 0; i < writes; i++ {
		if _, err := l.Write(h, int64(i)*4, []byte("abcd"), uint64(20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{
		"wal.append.begin", "wal.append.torn", "wal.append.before-fsync", "wal.append.after-fsync",
		"wal.drain.before-publish", "wal.drain.after-publish",
	} {
		if got := KillPointHits(point); got != writes {
			t.Errorf("%s hit %d times, want %d", point, got, writes)
		}
	}
}
