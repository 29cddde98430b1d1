// Package mem models the physical address space shared by the ISA golden
// model, the out-of-order core simulator and the dynamic swappable memory.
//
// A Space is a flat byte store partitioned into regions. Each region carries
// access permissions and a fault kind so that the same load can raise either
// an access fault (PMP-style) or a page fault (translation-style), which the
// stimulus generator uses to pick the transient-window trigger type.
//
// Regions own their bytes and taint shadow. Every write marks the pages it
// touches dirty, so restoring a space from an image (Restore) copies back
// only the pages written since its last restore from that image; a
// simulation that touches a few pages resets in time proportional to them,
// not to the whole space.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Perm is a permission bit set for a region.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// FaultKind distinguishes how a denied access is reported.
type FaultKind uint8

const (
	// FaultAccess raises load/store/fetch access faults (PMP semantics).
	FaultAccess FaultKind = iota
	// FaultPage raises load/store/fetch page faults (translation semantics).
	FaultPage
)

// AccessKind describes what the requester is doing.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessFetch
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessFetch:
		return "fetch"
	}
	return "access"
}

// Fault reports a denied or unmapped memory access.
type Fault struct {
	Addr uint64
	Kind AccessKind
	Page bool // true: page fault, false: access fault
}

func (f *Fault) Error() string {
	name := "access fault"
	if f.Page {
		name = "page fault"
	}
	return fmt.Sprintf("mem: %s %s at %#x", f.Kind, name, f.Addr)
}

// pageShift sets the granularity of region lookup and dirty tracking.
const pageShift = 8

// PageSize is the byte size of a page, the unit of region lookup and dirty
// tracking.
const PageSize = 1 << pageShift

// maxSpan bounds the highest region end: the page table covers every page
// below it.
const maxSpan = 1 << 28

// Region is a contiguous range of the space with uniform permissions. It
// owns its backing bytes and their taint shadow.
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Perm  Perm
	Fault FaultKind

	initPerm Perm     // construction-time permission, restored by Reset
	bytes    []byte   // backing store
	taint    []byte   // taint shadow (bit per data bit)
	dirty    []uint64 // a bit per region-relative page written since the last restore
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// markDirty records a write of n bytes at region offset off.
func (r *Region) markDirty(off uint64, n int) {
	if n <= 0 {
		return
	}
	for p := off >> pageShift; p <= (off+uint64(n)-1)>>pageShift; p++ {
		r.dirty[p>>6] |= 1 << (p & 63)
	}
}

// dirtyPages calls fn with the byte range [lo, hi) of every dirty page, in
// address order.
func (r *Region) dirtyPages(fn func(lo, hi int)) {
	for w, word := range r.dirty {
		for ; word != 0; word &= word - 1 {
			lo := (w<<6 + bits.TrailingZeros64(word)) << pageShift
			fn(lo, min(lo+PageSize, len(r.bytes)))
		}
	}
}

// restoreDirty copies every dirty page's bytes and taint back from src, a
// region of the same size, and marks the pages clean.
func (r *Region) restoreDirty(src *Region) {
	r.dirtyPages(func(lo, hi int) {
		copy(r.bytes[lo:hi], src.bytes[lo:hi])
		copy(r.taint[lo:hi], src.taint[lo:hi])
	})
	clear(r.dirty)
}

// Space is a byte-addressable physical memory with permission regions.
// The zero value is an empty space; NewSpace returns one too.
type Space struct {
	regions []*Region // ordered by base address
	// pages maps page p to the region holding the whole page, so a lookup
	// is one load. Pages that are unmapped or that a region boundary splits
	// hold nil, and lookups there search regions instead.
	pages []*Region
	// base is the image every clean page holds: the one the space was last
	// restored from, nil for all zeros.
	base *Space
}

// NewSpace returns an empty space.
func NewSpace() *Space { return &Space{} }

// AddRegion registers a new region and allocates its backing store.
// Regions must not overlap and must end below 256 MiB.
func (s *Space) AddRegion(r Region) (*Region, error) {
	if r.Size == 0 {
		return nil, fmt.Errorf("mem: region %q has zero size", r.Name)
	}
	if r.Base+r.Size < r.Base || r.Base+r.Size > maxSpan {
		return nil, fmt.Errorf("mem: region %q ends above %#x", r.Name, maxSpan)
	}
	for _, old := range s.regions {
		if r.Base < old.Base+old.Size && old.Base < r.Base+r.Size {
			return nil, fmt.Errorf("mem: region %q overlaps %q", r.Name, old.Name)
		}
	}
	pages := (r.Size + PageSize - 1) >> pageShift
	reg := &Region{
		Name: r.Name, Base: r.Base, Size: r.Size, Perm: r.Perm, Fault: r.Fault,
		initPerm: r.Perm,
		bytes:    make([]byte, r.Size),
		taint:    make([]byte, r.Size),
		dirty:    make([]uint64, (pages+63)/64),
	}
	s.regions = append(s.regions, reg)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	if end := (reg.Base + reg.Size) >> pageShift; end > uint64(len(s.pages)) {
		s.pages = append(s.pages, make([]*Region, end-uint64(len(s.pages)))...)
	}
	for p := (reg.Base + PageSize - 1) >> pageShift; p < (reg.Base+reg.Size)>>pageShift; p++ {
		s.pages[p] = reg
	}
	return reg, nil
}

// Reset returns the space to its construction-time state in place: every
// byte and taint zero and every permission the value it was added with. A
// reset space is indistinguishable from a freshly built one with the same
// region layout.
func (s *Space) Reset() {
	for _, r := range s.regions {
		clear(r.bytes)
		clear(r.taint)
		clear(r.dirty)
		r.Perm = r.initPerm
	}
	s.base = nil
}

// Restore makes the space a copy of img, a space with the same region
// layout: bytes, taint and permissions. Restoring from the image the space
// was last restored from copies back only the pages written since, so img
// must not be written while spaces restored from it are in use.
func (s *Space) Restore(img *Space) {
	if len(img.regions) != len(s.regions) {
		panic("mem: Restore from a space with a different layout")
	}
	for i, r := range s.regions {
		src := img.regions[i]
		if src.Base != r.Base || src.Size != r.Size {
			panic(fmt.Sprintf("mem: Restore from a space with a different layout (region %q)", r.Name))
		}
		if s.base == img {
			r.restoreDirty(src)
		} else {
			copy(r.bytes, src.bytes)
			copy(r.taint, src.taint)
			clear(r.dirty)
		}
		r.Perm = src.Perm
	}
	s.base = img
}

// DirtyBytes counts the bytes on pages written since the space was last
// restored or reset: what the next restore from the same image copies.
func (s *Space) DirtyBytes() int {
	n := 0
	for _, r := range s.regions {
		r.dirtyPages(func(lo, hi int) { n += hi - lo })
	}
	return n
}

// ZeroDirty zeroes the bytes (not the taint) of every page of the region
// containing addr that was written since the space was last restored or
// reset. The other pages still hold the image's bytes, so this clears the
// whole region exactly where the image holds zeros there.
func (s *Space) ZeroDirty(addr uint64) {
	if r := s.Region(addr); r != nil {
		r.dirtyPages(func(lo, hi int) { clear(r.bytes[lo:hi]) })
	}
}

// DiffLines splits the region containing addr into lines of line bytes and
// calls fn(off, n) for each line whose bytes differ between a and b, in
// offset order: off is
// the line's offset in the region and n its count of differing bytes. Both
// spaces must share the region's layout. When both were last restored from
// the same image, only lines on pages dirty in either space are read: a page
// clean in both still holds the image's bytes in each.
func DiffLines(a, b *Space, addr uint64, line int, fn func(off, n int)) {
	ra, rb := a.Region(addr), b.Region(addr)
	if ra == nil || rb == nil {
		return
	}
	size := len(ra.bytes)
	diff := func(off int) {
		la, lb := ra.bytes[off:min(off+line, size)], rb.bytes[off:min(off+line, size)]
		if bytes.Equal(la, lb) {
			return
		}
		n := 0
		for i := range la {
			if la[i] != lb[i] {
				n++
			}
		}
		fn(off, n)
	}
	if a.base != b.base {
		for off := 0; off < size; off += line {
			diff(off)
		}
		return
	}
	next := 0 // first line offset not yet compared
	for w := range ra.dirty {
		for word := ra.dirty[w] | rb.dirty[w]; word != 0; word &= word - 1 {
			lo := (w<<6 + bits.TrailingZeros64(word)) << pageShift
			hi := min(lo+PageSize, size)
			for off := max(lo-lo%line, next); off < hi; off += line {
				diff(off)
				next = off + line
			}
		}
	}
}

// MustAddRegion is AddRegion that panics on error; intended for static layouts.
func (s *Space) MustAddRegion(r Region) *Region {
	reg, err := s.AddRegion(r)
	if err != nil {
		panic(err)
	}
	return reg
}

// Region returns the region containing addr, or nil.
func (s *Space) Region(addr uint64) *Region {
	if p := addr >> pageShift; p < uint64(len(s.pages)) && s.pages[p] != nil {
		return s.pages[p]
	}
	return s.search(addr)
}

// search finds the region containing addr by binary search (the lookup for
// pages the page table does not resolve).
func (s *Space) search(addr uint64) *Region {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].Base+s.regions[i].Size > addr
	})
	if i < len(s.regions) && s.regions[i].Contains(addr) {
		return s.regions[i]
	}
	return nil
}

// RegionByName returns the region with the given name, or nil.
func (s *Space) RegionByName(name string) *Region {
	for _, r := range s.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns all regions ordered by base address.
func (s *Space) Regions() []*Region { return s.regions }

// SetPerm atomically changes a region's permissions; this is how the swap
// runtime revokes secret access between the training and transient phases.
func (s *Space) SetPerm(name string, p Perm) error {
	r := s.RegionByName(name)
	if r == nil {
		return fmt.Errorf("mem: no region %q", name)
	}
	r.Perm = p
	return nil
}

// Check validates an access of size bytes without performing it.
func (s *Space) Check(addr uint64, size int, kind AccessKind) error {
	r := s.Region(addr)
	if r == nil || !r.Contains(addr+uint64(size)-1) {
		return &Fault{Addr: addr, Kind: kind, Page: false}
	}
	need := PermRead
	switch kind {
	case AccessStore:
		need = PermWrite
	case AccessFetch:
		need = PermExec
	}
	if r.Perm&need == 0 {
		return &Fault{Addr: addr, Kind: kind, Page: r.Fault == FaultPage}
	}
	return nil
}

// locate returns the region holding all of [addr, addr+size) and addr's
// offset in it.
func (s *Space) locate(addr uint64, size int) (*Region, uint64, bool) {
	r := s.Region(addr)
	if r == nil {
		return nil, 0, false
	}
	off := addr - r.Base
	if uint64(size) > r.Size-off {
		return nil, 0, false
	}
	return r, off, true
}

// ReadRaw reads without permission checks (used for cache refills and debug).
// Unmapped bytes read as zero.
func (s *Space) ReadRaw(addr uint64, size int) []byte {
	out := make([]byte, size)
	if r, off, ok := s.locate(addr, size); ok {
		copy(out, r.bytes[off:])
		return out
	}
	// Partial overlap: copy byte by byte.
	for i := range out {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			out[i] = r.bytes[off]
		}
	}
	return out
}

// WriteRaw writes without permission checks. Unmapped bytes are dropped.
func (s *Space) WriteRaw(addr uint64, data []byte) {
	if r, off, ok := s.locate(addr, len(data)); ok {
		copy(r.bytes[off:], data)
		r.markDirty(off, len(data))
		return
	}
	for i, v := range data {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			r.bytes[off] = v
			r.markDirty(off, 1)
		}
	}
}

// TaintRaw reads the taint shadow of [addr, addr+size).
func (s *Space) TaintRaw(addr uint64, size int) []byte {
	out := make([]byte, size)
	if r, off, ok := s.locate(addr, size); ok {
		copy(out, r.taint[off:])
		return out
	}
	for i := range out {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			out[i] = r.taint[off]
		}
	}
	return out
}

// SetTaint marks [addr, addr+size) fully tainted (every bit) or untainted.
func (s *Space) SetTaint(addr uint64, size int, tainted bool) {
	v := byte(0)
	if tainted {
		v = 0xff
	}
	if r, off, ok := s.locate(addr, size); ok {
		for i := range r.taint[off : off+uint64(size)] {
			r.taint[off+uint64(i)] = v
		}
		r.markDirty(off, size)
		return
	}
	for i := 0; i < size; i++ {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			r.taint[off] = v
			r.markDirty(off, 1)
		}
	}
}

// Read64 reads a little-endian 64-bit word and its taint mask, unchecked.
func (s *Space) Read64(addr uint64) (val, taint uint64) {
	// Fast path: the word lies entirely inside one region (the overwhelmingly
	// common case on the simulation hot path — no per-access allocation).
	if r, off, ok := s.locate(addr, 8); ok {
		return binary.LittleEndian.Uint64(r.bytes[off:]), binary.LittleEndian.Uint64(r.taint[off:])
	}
	var bb, tb [8]byte
	for i := 0; i < 8; i++ {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			bb[i] = r.bytes[off]
			tb[i] = r.taint[off]
		}
	}
	return binary.LittleEndian.Uint64(bb[:]), binary.LittleEndian.Uint64(tb[:])
}

// Write64 writes a little-endian 64-bit word and its taint mask, unchecked.
func (s *Space) Write64(addr uint64, val, taint uint64) {
	if r, off, ok := s.locate(addr, 8); ok {
		binary.LittleEndian.PutUint64(r.bytes[off:], val)
		binary.LittleEndian.PutUint64(r.taint[off:], taint)
		r.markDirty(off, 8)
		return
	}
	for i := 0; i < 8; i++ {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			r.bytes[off] = byte(val >> (8 * i))
			r.taint[off] = byte(taint >> (8 * i))
			r.markDirty(off, 1)
		}
	}
}

// Read32 reads a little-endian 32-bit word without permission checks or
// allocation (the architectural simulator's fetch path).
func (s *Space) Read32(addr uint64) uint32 {
	if r, off, ok := s.locate(addr, 4); ok {
		return binary.LittleEndian.Uint32(r.bytes[off:])
	}
	var v uint32
	for i := 0; i < 4; i++ {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			v |= uint32(r.bytes[off]) << (8 * i)
		}
	}
	return v
}

// Read reads size bytes (1,2,4,8) with permission checks, returning the
// zero-extended value, taint mask and fault (if any). A faulting read still
// returns the underlying data: the transient-forwarding bug model in the core
// decides whether that data is architecturally visible.
func (s *Space) Read(addr uint64, size int, kind AccessKind) (val, taint uint64, err error) {
	err = s.Check(addr, size, kind)
	if r, off, ok := s.locate(addr, size); ok {
		b, t := r.bytes[off:], r.taint[off:]
		for i := size - 1; i >= 0; i-- {
			val = val<<8 | uint64(b[i])
			taint = taint<<8 | uint64(t[i])
		}
		return val, taint, err
	}
	for i := size - 1; i >= 0; i-- {
		val <<= 8
		taint <<= 8
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			val |= uint64(r.bytes[off])
			taint |= uint64(r.taint[off])
		}
	}
	return val, taint, err
}

// Write stores size bytes with permission checks.
func (s *Space) Write(addr uint64, size int, val, taint uint64, kind AccessKind) error {
	if err := s.Check(addr, size, kind); err != nil {
		return err
	}
	if r, off, ok := s.locate(addr, size); ok {
		for i := 0; i < size; i++ {
			r.bytes[off+uint64(i)] = byte(val >> (8 * i))
			r.taint[off+uint64(i)] = byte(taint >> (8 * i))
		}
		r.markDirty(off, size)
		return nil
	}
	for i := 0; i < size; i++ {
		if r, off, ok := s.locate(addr+uint64(i), 1); ok {
			r.bytes[off] = byte(val >> (8 * i))
			r.taint[off] = byte(taint >> (8 * i))
			r.markDirty(off, 1)
		}
	}
	return nil
}

// Clone returns a deep copy of the space: regions, bytes, taint, and the
// record of which pages differ from which image.
func (s *Space) Clone() *Space {
	c := &Space{pages: make([]*Region, len(s.pages)), base: s.base}
	for _, r := range s.regions {
		nr := *r
		nr.bytes = bytes.Clone(r.bytes)
		nr.taint = bytes.Clone(r.taint)
		nr.dirty = slices.Clone(r.dirty)
		c.regions = append(c.regions, &nr)
		for p, pr := range s.pages {
			if pr == r {
				c.pages[p] = &nr
			}
		}
	}
	return c
}
