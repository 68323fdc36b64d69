package succinct

import (
	"fmt"
	"os"
	"sync"
)

// Mapped is a PackedGraph attached over a memory-mapped servable image: the
// serving form of a graph whose backing bytes live in the page cache, not
// the Go heap. Every accessor of the embedded PackedGraph reads the mapping
// directly — zero decode pass at open, zero heap copy of any section.
//
// Lifetime is reference counted: readers bracket use with Acquire/Release,
// and Close defers the munmap until the last reader drains, so a graph can
// be deleted from a catalog while queries are still walking the mapping
// without anyone touching unmapped memory.
type Mapped struct {
	*PackedGraph
	path string

	mu     sync.Mutex
	data   []byte
	unmap  func() error
	refs   int
	closed bool
}

// OpenPacked maps the servable snapshot image at path and attaches a
// PackedGraph over it. On linux the file is mmap'd (no heap copy; restart
// warm-up is directory validation only); elsewhere the image is read into
// the heap via io.ReaderAt and attached the same way. Only servable (v2.3)
// images open here — write one with WriteServable. The compact packed wire
// form must go through graphio's decode path instead.
func OpenPacked(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("succinct: mapping %s: %w", path, err)
	}
	pg, err := AttachServable(data)
	if err != nil {
		_ = unmap()
		return nil, fmt.Errorf("succinct: %s: %w", path, err)
	}
	return &Mapped{PackedGraph: pg, path: path, data: data, unmap: unmap}, nil
}

// StatServable reads only the fixed header of the servable image at path —
// the identity of a snapshot without mapping or decoding anything. The
// file's size is checked against the exact size the header implies, so a
// truncated spill never passes.
func StatServable(path string) (ServableInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ServableInfo{}, err
	}
	defer f.Close()
	var hdr [servableHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return ServableInfo{}, fmt.Errorf("succinct: %s: reading servable header: %w", path, err)
	}
	info, err := servableInfo(hdr[:])
	if err != nil {
		return ServableInfo{}, fmt.Errorf("succinct: %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return ServableInfo{}, err
	}
	if st.Size() != info.Bytes {
		return ServableInfo{}, fmt.Errorf("succinct: %s: %d bytes on disk, header implies %d", path, st.Size(), info.Bytes)
	}
	return info, nil
}

// MappedBytes returns the size of the mapped image.
func (m *Mapped) MappedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data))
}

// Acquire registers a reader and returns its release function. It fails
// once Close has been called — a drained mapping never hands out new
// references. Release must be called exactly once; the last release after
// Close performs the munmap.
func (m *Mapped) Acquire() (release func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("succinct: mapping of %s is closed", m.path)
	}
	m.refs++
	var once sync.Once
	return func() { once.Do(m.release) }, nil
}

func (m *Mapped) release() {
	m.mu.Lock()
	m.refs--
	doUnmap := m.closed && m.refs == 0 && m.unmap != nil
	var unmap func() error
	if doUnmap {
		unmap, m.unmap = m.unmap, nil
		m.data = nil
	}
	m.mu.Unlock()
	if doUnmap {
		_ = unmap()
	}
}

// Close marks the mapping closed. New Acquires fail immediately; the munmap
// happens now if no reader is active, otherwise when the last one releases.
// Close is idempotent and safe to call while readers are in flight — that
// is the whole point.
func (m *Mapped) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	var unmap func() error
	if m.refs == 0 && m.unmap != nil {
		unmap, m.unmap = m.unmap, nil
		m.data = nil
	}
	m.mu.Unlock()
	if unmap != nil {
		return unmap()
	}
	return nil
}

// Unmapped reports whether the underlying mapping has been released — the
// observable the drain tests pin (Close with readers in flight must leave
// this false until the last Release).
func (m *Mapped) Unmapped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed && m.unmap == nil
}
