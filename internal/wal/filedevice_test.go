package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"logicallog/internal/op"
)

var (
	errShortWrite = errors.New("injected short write")
	errSync       = errors.New("injected fsync failure")
	errTruncate   = errors.New("injected truncate failure")
)

// faultyFile fails the next shortWrites Writes after landing half their
// bytes, the next failSyncs Syncs, and the next failTruncates Truncates.
type faultyFile struct {
	file
	shortWrites, failSyncs, failTruncates int
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.shortWrites > 0 {
		f.shortWrites--
		n, _ := f.file.Write(p[:len(p)/2])
		return n, errShortWrite
	}
	return f.file.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSyncs > 0 {
		f.failSyncs--
		return errSync
	}
	return f.file.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncates > 0 {
		f.failTruncates--
		return errTruncate
	}
	return f.file.Truncate(size)
}

// openFaulty opens a FileDevice at a fresh path with its file wrapped in a
// faultyFile, and a Log over it holding four appended, unforced records.
// It returns the frames those records make.
func openFaulty(t *testing.T) (path string, dev *FileDevice, ff *faultyFile, l *Log, frames []byte) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "faulty.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	ff = &faultyFile{file: dev.f}
	dev.f = ff
	if l, err = New(dev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rec := NewOpRecord(op.NewPhysicalWrite("X", []byte{byte(i)}))
		mustAppend(t, l, rec)
		frames = AppendFrame(frames, rec)
	}
	return path, dev, ff, l, frames
}

// reopen returns the records a fresh Log over path finds.
func reopen(t *testing.T, path string) []*Record {
	t.Helper()
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// forceFailsThenRecovers forces the log, expecting the injected failure,
// then forces again and requires the whole log acknowledged, the file
// holding exactly the four frames once, and all four records on reopen.
func forceFailsThenRecovers(t *testing.T, path string, l *Log, frames []byte, want error) {
	t.Helper()
	if err := l.Force(); !errors.Is(err, want) {
		t.Fatalf("first Force = %v, want %v", err, want)
	}
	if err := l.Force(); err != nil {
		t.Fatalf("second Force: %v", err)
	}
	if got := l.StableLSN(); got != 4 {
		t.Fatalf("StableLSN = %d, want 4", got)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, frames) {
		t.Errorf("file holds %d bytes, want the four frames' %d", len(got), len(frames))
	}
	if recs := reopen(t, path); len(recs) != 4 || recs[3].LSN != 4 {
		t.Fatalf("reopened log has %d records, want LSNs 1-4", len(recs))
	}
}

// TestFileDeviceShortWriteLosesNoAckedForce lands half of the first device
// write and fails it.  Appending the retry after the torn half would hide
// the acknowledged LSNs 3-4 behind it on reopen; the device must cut the
// file back first.
func TestFileDeviceShortWriteLosesNoAckedForce(t *testing.T) {
	path, _, ff, l, frames := openFaulty(t)
	ff.shortWrites = 1
	forceFailsThenRecovers(t, path, l, frames, errShortWrite)
}

// TestFileDeviceFailedSyncRewrites fails the fsync after a whole write.
// The retry must write the frames again rather than count the unsynced
// bytes durable, and must not leave them on the file twice.
func TestFileDeviceFailedSyncRewrites(t *testing.T) {
	path, _, ff, l, frames := openFaulty(t)
	ff.failSyncs = 1
	forceFailsThenRecovers(t, path, l, frames, errSync)
}

// TestFileDeviceDiesWhenRollbackFails fails a write and then the truncate
// that would undo it.  Every later call errors, even once the file would
// accept writes again, until the path is reopened.
func TestFileDeviceDiesWhenRollbackFails(t *testing.T) {
	path, dev, ff, l, _ := openFaulty(t)
	ff.shortWrites, ff.failTruncates = 1, 1
	if err := l.Force(); !errors.Is(err, errTruncate) || !errors.Is(dev.dead, errTruncate) {
		t.Fatalf("Force = %v (dead %v), want the truncate failure to kill the device", err, dev.dead)
	}
	if err := l.Force(); err == nil {
		t.Error("Force on a dead device succeeded")
	}
	if err := dev.Append([]byte("x")); err == nil {
		t.Error("Append on a dead device succeeded")
	}
	if _, err := dev.Size(); err == nil {
		t.Error("Size on a dead device succeeded")
	}
	if _, err := dev.ReadAll(); err == nil {
		t.Error("ReadAll on a dead device succeeded")
	}
	if err := dev.Rewrite(nil); err == nil {
		t.Error("Rewrite on a dead device succeeded")
	}
	// Reopening trims the torn half-write; whatever whole frames it left
	// are a prefix of the log.
	recs := reopen(t, path)
	for i, r := range recs {
		if r.LSN != op.SI(i+1) {
			t.Fatalf("reopened record %d has LSN %d", i, r.LSN)
		}
	}
}
