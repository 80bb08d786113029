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
	// Append durably appends p.
	Append(p []byte) error
	// ReadAll returns the device's full contents.
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

// ReadAll implements Device.
func (m *MemDevice) ReadAll() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data...), nil
}

// Size implements Device.
func (m *MemDevice) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Rewrite implements Device.
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
type FileDevice struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenFileDevice opens (creating if needed) a file-backed device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileDevice{path: path, f: f}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.f.Write(p); err != nil {
		return err
	}
	return d.f.Sync()
}

// ReadAll implements Device.
func (d *FileDevice) ReadAll() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return os.ReadFile(d.path)
}

// Size implements Device.
func (d *FileDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Rewrite implements Device.  The new contents go to a temporary file that
// is synced and renamed over the log, and the directory is synced, so a
// crash at any point leaves the old log or the new one, whole.  A failure
// before the rename removes the temporary file and keeps the old file open;
// once renamed, the new file is the log and Appends go to it.
func (d *FileDevice) Rewrite(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
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
