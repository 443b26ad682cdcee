// Package cache implements the trace-driven cache and TLB simulators used
// by the platform model. The paper's performance analysis (§5.1, §6.1)
// reasons about SpMV through cache-line traffic: compulsory traffic for the
// streamed matrix, reuse (or capacity misses) for the source vector, and
// write-allocate traffic for the destination. This package makes those
// quantities measurable for an arbitrary access stream against the cache
// geometries of Table 1.
//
// The simulator is address-based with set-associative LRU replacement and
// a write-allocate, write-back policy — the policy of all four cache-based
// systems in the study. (The Cell SPE has no cache; its local store is
// modeled in internal/sim as explicit DMA traffic instead.)
package cache

import (
	"fmt"
	"math/bits"
)

// Stats accumulates the outcome of a simulation run.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Writebacks int64 // dirty lines evicted (adds DRAM write traffic)
}

// MissRate returns Misses/Accesses (0 for an empty run).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// BytesIn returns the DRAM read traffic implied by the misses for the
// given line size.
func (s Stats) BytesIn(lineBytes int) int64 { return s.Misses * int64(lineBytes) }

// BytesOut returns the DRAM write traffic implied by the writebacks.
func (s Stats) BytesOut(lineBytes int) int64 { return s.Writebacks * int64(lineBytes) }

// Cache is a set-associative LRU cache. The zero value is unusable; use New.
type Cache struct {
	lineBytes  int
	sets       int
	ways       int
	lineShift  uint
	setMask    uint64
	tags       []uint64 // sets × ways, tag per way (tagValid bit set when valid)
	dirty      []bool
	lru        []uint32 // per-way recency rank; 0 = most recent; permutation per set
	stats      Stats
	inclusive  bool
	NextLevel  *Cache // optional: misses are forwarded (inclusive hierarchy)
	nextShared bool
}

const tagValid = uint64(1) << 63

// New builds a cache of size totalBytes with the given line size and
// associativity. assoc == 0 means fully associative. Sizes must make the
// set count a power of two.
func New(totalBytes int64, lineBytes, assoc int) (*Cache, error) {
	if lineBytes <= 0 || totalBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %d bytes, %d-byte lines", totalBytes, lineBytes)
	}
	if bits.OnesCount(uint(lineBytes)) != 1 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	}
	lines := totalBytes / int64(lineBytes)
	if lines == 0 {
		return nil, fmt.Errorf("cache: %d bytes smaller than one %d-byte line", totalBytes, lineBytes)
	}
	if assoc <= 0 || int64(assoc) > lines {
		assoc = int(lines) // fully associative
	}
	sets := lines / int64(assoc)
	if sets == 0 {
		sets = 1
	}
	if bits.OnesCount64(uint64(sets)) != 1 {
		return nil, fmt.Errorf("cache: %d sets not a power of two (size %d, line %d, assoc %d)",
			sets, totalBytes, lineBytes, assoc)
	}
	c := &Cache{
		lineBytes: lineBytes,
		sets:      int(sets),
		ways:      assoc,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*int64(assoc)),
		dirty:     make([]bool, sets*int64(assoc)),
		lru:       make([]uint32, sets*int64(assoc)),
	}
	c.resetLRU()
	return c, nil
}

// MustNew is New that panics on error, for Table-1 geometries known good.
func MustNew(totalBytes int64, lineBytes, assoc int) *Cache {
	c, err := New(totalBytes, lineBytes, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters but keeps cache contents (useful for warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates all lines, counting dirty evictions as writebacks.
func (c *Cache) Flush() {
	for i := range c.tags {
		if c.tags[i]&tagValid != 0 && c.dirty[i] {
			c.stats.Writebacks++
		}
		c.tags[i] = 0
		c.dirty[i] = false
	}
	c.resetLRU()
}

// resetLRU seeds each set's recency ranks with the identity permutation so
// the rank invariant (a permutation of 0..ways-1 per set) holds from the
// start; promote preserves it thereafter.
func (c *Cache) resetLRU() {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.lru[s*c.ways+w] = uint32(w)
		}
	}
}

// Access simulates one memory access of the given size (which may span
// multiple lines). write marks lines dirty. It returns the number of line
// misses the access caused at this level.
func (c *Cache) Access(addr uint64, size int, write bool) int {
	if size <= 0 {
		return 0
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	misses := 0
	for line := first; line <= last; line++ {
		if !c.accessLine(line, write) {
			misses++
		}
	}
	return misses
}

// accessLine touches one line; reports true on hit.
func (c *Cache) accessLine(line uint64, write bool) bool {
	set := int(line & c.setMask)
	tag := (line >> uint(bits.TrailingZeros64(uint64(c.sets)))) | tagValid
	base := set * c.ways
	c.stats.Accesses++

	// Hit path: find the tag, promote to MRU.
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.promote(base, w)
			if write {
				c.dirty[base+w] = true
			}
			c.stats.Hits++
			return true
		}
	}

	// Miss: forward to the next level (if modeled), then fill the LRU way.
	c.stats.Misses++
	if c.NextLevel != nil {
		c.NextLevel.accessLine(line, write)
	}
	victim := -1
	var worst uint32
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w]&tagValid == 0 {
			victim = w
			break
		}
		if c.lru[base+w] >= worst {
			worst = c.lru[base+w]
			victim = w
		}
	}
	if victim < 0 {
		victim = 0
	}
	if c.tags[base+victim]&tagValid != 0 && c.dirty[base+victim] {
		c.stats.Writebacks++
	}
	c.tags[base+victim] = tag
	c.dirty[base+victim] = write
	c.promote(base, victim)
	return false
}

// promote makes way w the MRU of its set by incrementing the rank of every
// way more recent than it.
func (c *Cache) promote(base, w int) {
	old := c.lru[base+w]
	for i := 0; i < c.ways; i++ {
		if c.lru[base+i] < old {
			c.lru[base+i]++
		}
	}
	c.lru[base+w] = 0
}

// Contains reports whether the line holding addr is resident (no state
// change, no stats).
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := (line >> uint(bits.TrailingZeros64(uint64(c.sets)))) | tagValid
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// TLB is a fully-associative LRU translation buffer: the structure behind
// the paper's TLB-blocking heuristic (§4.2, blocking the Opteron's L1 TLB).
type TLB struct {
	pageShift uint
	entries   int
	pages     []uint64
	lru       []uint32
	clock     uint32
	stats     Stats
}

// NewTLB builds a TLB with the given page size (power of two) and entry
// count.
func NewTLB(pageBytes, entries int) (*TLB, error) {
	if pageBytes <= 0 || bits.OnesCount(uint(pageBytes)) != 1 {
		return nil, fmt.Errorf("cache: page size %d not a power of two", pageBytes)
	}
	if entries <= 0 {
		return nil, fmt.Errorf("cache: TLB needs at least one entry")
	}
	return &TLB{
		pageShift: uint(bits.TrailingZeros(uint(pageBytes))),
		entries:   entries,
		pages:     make([]uint64, 0, entries),
		lru:       make([]uint32, 0, entries),
	}, nil
}

// Stats returns the accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// Access touches the pages spanned by [addr, addr+size); returns misses.
func (t *TLB) Access(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := addr >> t.pageShift
	last := (addr + uint64(size) - 1) >> t.pageShift
	misses := 0
	for p := first; p <= last; p++ {
		if !t.accessPage(p) {
			misses++
		}
	}
	return misses
}

func (t *TLB) accessPage(page uint64) bool {
	t.stats.Accesses++
	t.clock++
	for i, p := range t.pages {
		if p == page {
			t.lru[i] = t.clock
			t.stats.Hits++
			return true
		}
	}
	t.stats.Misses++
	if len(t.pages) < t.entries {
		t.pages = append(t.pages, page)
		t.lru = append(t.lru, t.clock)
		return false
	}
	victim, oldest := 0, t.lru[0]
	for i := 1; i < len(t.lru); i++ {
		if t.lru[i] < oldest {
			oldest = t.lru[i]
			victim = i
		}
	}
	t.pages[victim] = page
	t.lru[victim] = t.clock
	return false
}
