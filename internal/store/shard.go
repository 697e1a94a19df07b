package store

import (
	"sync"

	"semitri/internal/core"
	"semitri/internal/episode"
)

// shard is one lock stripe of the store: a full copy of the table set
// guarded by its own mutex, plus the stripe's share of the running totals.
// Which stripe holds a row is decided by Store.shardFor on the table's key
// (object id for records/trajByObject, trajectory id for the rest).
type shard struct {
	mu sync.RWMutex
	// tables — with a cold tier attached these hold only the mutable tail;
	// each key's frozen prefix length lives in frozen and resolves through
	// the tier. Evicted keys keep their (possibly empty) map entry, so key
	// listings never need to consult the tier. Trajectories are ranges over
	// the record runs and stay listed here whether or not a segment holds
	// them.
	records      map[string][]fix              // object id -> raw records, packed
	trajectories map[string]trajRange          // trajectory id -> range of its object's records
	episodes     map[string][]*episode.Episode // trajectory id -> episodes
	structured   map[string]structuredByInterp // trajectory id -> interpretation -> SST
	trajByObject map[string][]string           // object id -> trajectory ids

	// running totals, so aggregate queries are O(shards) instead of
	// full-table scans. They are logical — frozen rows stay counted.
	// Guarded by mu like the tables they mirror.
	recordCount int
	stopCount   int
	moveCount   int
	structCount int // (trajectory, interpretation) pairs stored

	// frozen is the stripe's cold-tier bookkeeping; nil until the store is
	// tiered and something in this stripe froze (or merged), so untiered
	// stores pay one nil check. Guarded by mu.
	frozen *shardFrozen
}

// tupKey identifies one structured interpretation of one trajectory.
type tupKey struct{ traj, interp string }

// shardFrozen tracks, per key, how much of the key's content lives in the
// cold tier, plus the annotation-merge overlay for frozen tuples and the
// per-key generation counters a freeze uses to detect writes racing it.
type shardFrozen struct {
	recs    map[string]int // object -> frozen record count
	eps     map[string]int // trajectory -> frozen episode count
	epStops map[string]int // trajectory -> stop count within the frozen episodes
	tups    map[tupKey]int // (trajectory, interpretation) -> frozen tuple count;
	// entry presence (even at 0) means the tier persists the key's existence.

	// overlay holds merged replacements for frozen tuples: reads consult it
	// before the tier, and the next freeze writes the dirty entries out as
	// merge frames. Entries stay for the life of the process (they are the
	// only heap residency frozen tuples can reacquire).
	overlay map[tupKey]map[int]*core.EpisodeTuple
	// overlayDirty queues overlay writes for the next freeze, in merge
	// order; CollectTail snapshots a prefix and CommitFreeze drops it.
	overlayDirty []overlayRef

	// gens counts content-invalidating writes per key: whole-sequence
	// replaces and in-place heap merges. A freeze captures the generation at
	// collect time and commits a key's eviction only if it is unchanged.
	gens map[freezeKey]uint64
}

// overlayRef queues one overlay entry for the next freeze.
type overlayRef struct {
	k   tupKey
	idx int
}

// freezeTable enumerates the freezable tables.
type freezeTable uint8

const (
	frzRecords freezeTable = iota + 1
	frzTrajectory
	frzEpisodes
	frzTuples
	frzOverlay
)

// freezeKey identifies one freezable unit: an object's record run, a
// trajectory, an episode sequence or a structured interpretation.
type freezeKey struct {
	table  freezeTable
	key    string // object id for frzRecords, trajectory id otherwise
	interp string // frzTuples/frzOverlay only
}

// frozenMeta returns the stripe's cold bookkeeping, creating it on first
// use. Caller holds mu (or is the single-threaded installer).
func (sh *shard) frozenMeta() *shardFrozen {
	if sh.frozen == nil {
		sh.frozen = &shardFrozen{
			recs:    map[string]int{},
			eps:     map[string]int{},
			epStops: map[string]int{},
			tups:    map[tupKey]int{},
			overlay: map[tupKey]map[int]*core.EpisodeTuple{},
			gens:    map[freezeKey]uint64{},
		}
	}
	return sh.frozen
}

// base returns a key's frozen length: its record, episode or tuple count
// (0 for a raw trajectory, whose range is not a prefix).
func (fz *shardFrozen) base(k freezeKey) int {
	switch k.table {
	case frzRecords:
		return fz.recs[k.key]
	case frzEpisodes:
		return fz.eps[k.key]
	case frzTuples:
		return fz.tups[tupKey{k.key, k.interp}]
	}
	return 0
}

// frozenRecs returns the frozen record count of an object. Caller holds mu.
func (sh *shard) frozenRecs(obj string) int {
	if sh.frozen == nil {
		return 0
	}
	return sh.frozen.recs[obj]
}

// frozenEps returns the frozen episode count of a trajectory. Caller holds mu.
func (sh *shard) frozenEps(id string) int {
	if sh.frozen == nil {
		return 0
	}
	return sh.frozen.eps[id]
}

// frozenTups returns the frozen tuple count of (trajectory, interpretation).
// Caller holds mu.
func (sh *shard) frozenTups(k tupKey) int {
	if sh.frozen == nil {
		return 0
	}
	return sh.frozen.tups[k]
}

// bumpGen records a content-invalidating write to a key, failing any freeze
// capture in flight for it. Caller holds mu; only tiered stores pay for it.
func (sh *shard) bumpGen(k freezeKey) {
	sh.frozenMeta().gens[k]++
}

// gen returns a key's current generation. Caller holds mu.
func (sh *shard) gen(k freezeKey) uint64 {
	if sh.frozen == nil {
		return 0
	}
	return sh.frozen.gens[k]
}

func newShard() *shard {
	return &shard{
		records:      map[string][]fix{},
		trajectories: map[string]trajRange{},
		episodes:     map[string][]*episode.Episode{},
		structured:   map[string]structuredByInterp{},
		trajByObject: map[string][]string{},
	}
}

// countEpisodes adds eps to the stripe's stop/move totals. Caller holds mu.
func (sh *shard) countEpisodes(eps []*episode.Episode) {
	for _, e := range eps {
		if e.Kind == episode.Stop {
			sh.stopCount++
		} else {
			sh.moveCount++
		}
	}
}

// uncountEpisodes removes eps from the stripe's stop/move totals (used when
// PutEpisodes replaces a trajectory's episodes). Caller holds mu.
func (sh *shard) uncountEpisodes(eps []*episode.Episode) {
	for _, e := range eps {
		if e.Kind == episode.Stop {
			sh.stopCount--
		} else {
			sh.moveCount--
		}
	}
}
