package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Device is the durable byte store beneath a Log.  Append is atomic and
// durable in the simulator's crash model; the Log's volatile tail models the
// unforced buffer that a crash loses.
type Device interface {
	// Append durably appends p.  p is a slice of the Log's tail buffer,
	// which the Log compacts once Append returns: an implementation must
	// not keep p, or any slice of it, after the call.
	Append(p []byte) error
	// ReadAll returns the device's full contents.  The result is read-only:
	// a device may lend its own bytes rather than copy them (MemDevice
	// does), and the records a scan decodes alias them.
	ReadAll() ([]byte, error)
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Rewrite atomically replaces the device contents (used by log
	// truncation).
	Rewrite(p []byte) error
	// Close releases resources.
	Close() error
}

// MemDevice is an in-memory Device, the default for simulations and tests.
// Fault injection (torn appends, bit flips, reordered batches) lives in
// internal/fault, whose Plan.WrapDevice decorates any Device.
//
// ReadAll lends the device's bytes instead of copying them, and a lent slice
// stays byte-identical for as long as anyone holds it.  Its capacity is its
// length, so an append by its holder moves to a new array; Append writes only
// past the current length, which is past the end of every lent slice; and
// Rewrite replaces the backing array rather than writing into it.  The
// holder must not write into it.
type MemDevice struct {
	mu   sync.Mutex
	data []byte
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// Append implements Device.
func (m *MemDevice) Append(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append(m.data, p...)
	return nil
}

// ReadAll implements Device.  It lends the device's bytes (see MemDevice).
func (m *MemDevice) ReadAll() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.data)
	return m.data[:n:n], nil
}

// Size implements Device.
func (m *MemDevice) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Rewrite implements Device.  It copies p into a new array, leaving every
// lent slice as it was.
func (m *MemDevice) Rewrite(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append([]byte(nil), p...)
	return nil
}

// Close implements Device.
func (m *MemDevice) Close() error { return nil }

// FileDevice is a file-backed Device so logs can be inspected offline with
// cmd/llinspect and survive real process restarts.
//
// It is fail-stop.  A write or fsync that fails may still leave bytes on the
// file (a short write, or pages whose fsync reported an error), and a retry
// that appended after them would strand every later frame behind a torn one.
// So a failed Append truncates the file back to its durable size and fsyncs
// before it returns the error, and the Log's retry appends to a clean end.
// A failed fsync is never retried into a success: the retry writes the bytes
// again.  If the truncation fails too, the device is dead, and every later
// call errors until it is reopened.
type FileDevice struct {
	mu   sync.Mutex
	path string
	f    file
	// size is the file's durable length: set at open, and after each
	// successful Append and Rewrite.
	size int64
	// dead, once set, is returned by every later call.
	dead error
}

// file is the part of *os.File a FileDevice uses; in-package tests
// substitute one that fails on cue.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OpenFileDevice opens (creating if needed) a file-backed device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileDevice{path: path, f: f, size: st.Size()}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return d.dead
	}
	_, err := d.f.Write(p)
	if err == nil {
		err = d.f.Sync()
	}
	if err != nil {
		return d.rollback(err)
	}
	d.size += int64(len(p))
	return nil
}

// rollback cuts the file back to its durable size after a failed Append and
// returns cause; if the cut cannot be made durable, the device dies.
func (d *FileDevice) rollback(cause error) error {
	err := d.f.Truncate(d.size)
	if err == nil {
		err = d.f.Sync()
	}
	if err != nil {
		d.dead = fmt.Errorf("wal: %s is dead until reopened: append failed (%v) and truncating back to %d bytes failed: %w",
			d.path, cause, d.size, err)
		return d.dead
	}
	return cause
}

// ReadAll implements Device.
func (d *FileDevice) ReadAll() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return nil, d.dead
	}
	return os.ReadFile(d.path)
}

// Size implements Device.
func (d *FileDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return 0, d.dead
	}
	return d.size, nil
}

// Rewrite implements Device.  The new contents go to a temporary file that
// is synced and renamed over the log, and the directory is synced, so a
// crash at any point leaves the old log or the new one, whole.  A failure
// before the rename removes the temporary file and keeps the old file open;
// once renamed, the new file is the log and Appends go to it.
func (d *FileDevice) Rewrite(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != nil {
		return d.dead
	}
	tmp := d.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(p); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, d.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	err = syncDir(filepath.Dir(d.path))
	d.f.Close() // superseded by the rename; nothing of it is read again
	d.f = f
	d.size = int64(len(p))
	return err
}

// syncDir makes the entries of dir, such as a rename into it, durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}
