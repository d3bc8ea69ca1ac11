// Package sim builds synthetic metacomputing environments and workloads
// for the experiments in EXPERIMENTS.md.
//
// The paper evaluated Legion on a real multi-site testbed (Unix
// workstations, MPPs, batch-managed clusters). That environment is not
// available, so sim provides the closest synthetic equivalent: worlds
// declared as a Spec and built by New, fleets of heterogeneous Host
// objects (mixed architectures, OSes, CPU counts, zones, costs, prices)
// at a drawn background load, an open-loop driver that replays
// placement workloads against them (Drive), and the makespan and
// imbalance metrics the scheduler tables judge placements by.
// Experiments that need load to change over a run set it on the Hosts
// themselves. The RMI code path exercised is exactly the production
// one; only the machine behind each Host is synthetic.
package sim

import (
	"context"
	"math"
	"math/rand"
	"time"

	"legion/internal/batchq"
	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/sched"
	"legion/internal/vault"
)

// HostSpec describes one synthetic machine.
type HostSpec struct {
	Arch     string
	OS       string
	OSVer    string
	CPUs     int
	MemoryMB int
	Zone     string
	Cost     float64
	// Speed is a relative per-CPU speed factor used by the makespan
	// model; 1.0 is the baseline machine.
	Speed float64
	// Load is the background load Build sets on the host.
	Load float64
	// MaxShared overrides the host's timesharing multiplex bound
	// (0 keeps the host default of 4x CPUs).
	MaxShared int
	// Price is the economy layer's charge per instance-hour
	// ($host_price, DESIGN.md §15); zero means unpriced.
	Price float64
	// Spot marks the host as spot capacity ($host_class).
	Spot bool
	// Batch makes it a Batch Queue Host: its objects start through a
	// queue with one slot per CPU and a batchCycle dispatch delay.
	Batch bool
}

// batchCycle is a batch host's queue dispatch delay: the scheduler
// cycle of the queue manager behind it.
const batchCycle = 50 * time.Millisecond

// archetypes is a small catalogue of late-1990s machine types, matching
// the paper's era (IRIX workstations, Solaris servers, Linux PCs, AIX
// nodes behind LoadLeveler).
var archetypes = []HostSpec{
	{Arch: "mips", OS: "IRIX", OSVer: "5.3", CPUs: 2, MemoryMB: 256, Speed: 0.8, Cost: 2.0},
	{Arch: "mips", OS: "IRIX", OSVer: "6.5", CPUs: 4, MemoryMB: 512, Speed: 1.0, Cost: 2.5},
	{Arch: "sparc", OS: "Solaris", OSVer: "2.6", CPUs: 8, MemoryMB: 1024, Speed: 1.2, Cost: 3.0},
	{Arch: "x86", OS: "Linux", OSVer: "2.2", CPUs: 1, MemoryMB: 128, Speed: 0.9, Cost: 0.5},
	{Arch: "x86", OS: "Linux", OSVer: "2.2", CPUs: 2, MemoryMB: 256, Speed: 1.1, Cost: 0.7},
	{Arch: "rs6000", OS: "AIX", OSVer: "4.3", CPUs: 16, MemoryMB: 2048, Speed: 1.5, Cost: 4.0},
}

// RandomSpecs draws n host specs from the archetype catalogue with
// randomized initial load, spread across the given zones.
func RandomSpecs(rng *rand.Rand, n int, zones ...string) []HostSpec {
	if len(zones) == 0 {
		zones = []string{"z1"}
	}
	specs := make([]HostSpec, n)
	for i := range specs {
		s := archetypes[rng.Intn(len(archetypes))]
		s.Zone = zones[rng.Intn(len(zones))]
		s.Load = 0.1 + 0.5*rng.Float64()
		specs[i] = s
	}
	return specs
}

// EconomySpecs draws n priced host specs for economy campaigns
// (DESIGN.md §15): the archetype fleet with a per-instance-hour price
// proportional to modelled capacity (speed × CPUs), and roughly a third
// of the fleet sold as discounted spot capacity.
func EconomySpecs(rng *rand.Rand, n int, zones ...string) []HostSpec {
	specs := RandomSpecs(rng, n, zones...)
	for i := range specs {
		s := &specs[i]
		s.Price = 0.05 * s.Speed * float64(s.CPUs)
		if rng.Float64() < 0.3 {
			s.Spot = true
			s.Price *= 0.4
		}
	}
	return specs
}

// UniformSpecs builds n identical Linux/x86 hosts — the homogeneous
// baseline fleet.
func UniformSpecs(n int, cpus int) []HostSpec {
	specs := make([]HostSpec, n)
	for i := range specs {
		specs[i] = HostSpec{Arch: "x86", OS: "Linux", OSVer: "2.2",
			CPUs: cpus, MemoryMB: 1024, Zone: "z1", Speed: 1.0, Cost: 1.0}
	}
	return specs
}

// Fleet is a built synthetic metasystem.
//
// Per-host state is flattened for scale: drawing 100k hosts from a
// six-entry archetype catalogue must not cost 100k full HostSpec records
// and a 100k-entry LOID-keyed map. Specs are interned (catalogue index
// per host, initial load split out), and the LOID→index table is a dense
// slice keyed by the LOID's instance serial — host LOIDs are minted
// sequentially by one runtime, so the table is an array, not a map.
type Fleet struct {
	MS    *core.Metasystem
	Hosts []*host.Host
	// catalog holds each distinct spec shape once (Load zeroed);
	// specIDs[i] is host i's catalogue entry, loads[i] its initial load.
	catalog []HostSpec
	specIDs []int32
	loads   []float32
	// Dense LOID→index table: host i sits at idx[LOID.Instance-idxBase].
	idxDomain string
	idxBase   uint64
	idx       []int32
}

// Spec declares one domain's world: the metasystem's options, its
// hosts, and how many vaults each zone runs. New builds it.
type Spec struct {
	Domain  string
	Options core.Options
	Hosts   []HostSpec
	// Vaults is how many vaults each zone runs (0 means 1). Every host
	// reaches every vault of its zone.
	Vaults int
}

// New builds the world s declares: the metasystem, then s.Vaults vaults
// per zone in the order zones first appear among the hosts, then one
// host per HostSpec.
func New(s Spec) *Fleet {
	return build(core.New(s.Domain, s.Options), s.Hosts, s.Vaults)
}

// Build constructs hosts (one per spec) in ms, with one vault per zone:
// New's build step for a metasystem the caller already made. Every
// random draw is already in specs: rng is not read, and stays only so
// that existing callers keep compiling.
func Build(ms *core.Metasystem, _ *rand.Rand, specs []HostSpec) *Fleet {
	return build(ms, specs, 1)
}

func build(ms *core.Metasystem, specs []HostSpec, perZone int) *Fleet {
	f := &Fleet{
		MS:      ms,
		Hosts:   make([]*host.Host, 0, len(specs)),
		specIDs: make([]int32, 0, len(specs)),
		loads:   make([]float32, 0, len(specs)),
	}
	if perZone < 1 {
		perZone = 1
	}
	// All hosts of a zone share one immutable slice of its vaults rather
	// than allocating their own.
	vaults := make(map[string][]loid.LOID)
	for _, s := range specs {
		if _, ok := vaults[s.Zone]; !ok {
			zv := make([]loid.LOID, perZone)
			for j := range zv {
				zv[j] = ms.AddVault(vault.Config{Zone: s.Zone}).LOID()
			}
			vaults[s.Zone] = zv
		}
	}
	catIdx := make(map[HostSpec]int32)
	for i, s := range specs {
		var q *batchq.Queue
		if s.Batch {
			q = batchq.New(batchq.Config{
				Name: "batch", Slots: max(s.CPUs, 1),
				DispatchDelay: batchCycle, Clock: ms.Runtime().Clock(),
			})
		}
		h := ms.AddHost(host.Config{
			Arch: s.Arch, OS: s.OS, OSVersion: s.OSVer,
			CPUs: s.CPUs, MemoryMB: s.MemoryMB, Zone: s.Zone,
			CostPerCPU: s.Cost,
			MaxShared:  s.MaxShared,
			Price:      s.Price,
			Spot:       s.Spot,
			Speed:      s.Speed,
			Vaults:     vaults[s.Zone],
			Queue:      q,
		})
		h.SetExternalLoad(s.Load)
		h.Reassess(context.Background())
		f.Hosts = append(f.Hosts, h)

		key := s
		key.Load = 0
		id, ok := catIdx[key]
		if !ok {
			id = int32(len(f.catalog))
			f.catalog = append(f.catalog, key)
			catIdx[key] = id
		}
		f.specIDs = append(f.specIDs, id)
		f.loads = append(f.loads, float32(s.Load))

		l := h.LOID()
		if i == 0 {
			f.idxDomain = l.Domain
			f.idxBase = l.Instance
		}
		f.growIdx(l.Instance)
		f.idx[l.Instance-f.idxBase] = int32(i)
	}
	return f
}

// growIdx extends the dense index to cover the given instance serial.
// Host LOIDs are sequential, so this appends a handful of slots at most;
// interleaved non-host minting just leaves -1 holes.
func (f *Fleet) growIdx(instance uint64) {
	for uint64(len(f.idx)) <= instance-f.idxBase {
		f.idx = append(f.idx, -1)
	}
}

// indexOf resolves a host LOID to its fleet position.
func (f *Fleet) indexOf(l loid.LOID) (int, bool) {
	if l.Domain != f.idxDomain || l.Instance < f.idxBase {
		return 0, false
	}
	off := l.Instance - f.idxBase
	if off >= uint64(len(f.idx)) || f.idx[off] < 0 {
		return 0, false
	}
	i := int(f.idx[off])
	// Guard against a foreign LOID whose serial collides (e.g. a Vault
	// minted between hosts): the slot must name this host.
	if f.Hosts[i].LOID() != l {
		return 0, false
	}
	return i, true
}

// specAt reconstructs host i's full spec from the interned form.
func (f *Fleet) specAt(i int) HostSpec {
	s := f.catalog[f.specIDs[i]]
	s.Load = float64(f.loads[i])
	return s
}

// --- Placement quality metrics ---

// TaskCounts tallies mappings per host.
func TaskCounts(mappings []sched.Mapping) map[loid.LOID]int {
	m := make(map[loid.LOID]int)
	for _, mp := range mappings {
		m[mp.Host]++
	}
	return m
}

// Makespan estimates completion time for equal-size tasks of the given
// duration under the fleet's speed/load model: each host processes its
// assigned tasks across its CPUs at speed Speed/(1+load).
func (f *Fleet) Makespan(mappings []sched.Mapping, taskDur time.Duration) time.Duration {
	var worst time.Duration
	for hostL, n := range TaskCounts(mappings) {
		i, ok := f.indexOf(hostL)
		if !ok {
			continue
		}
		s := f.specAt(i)
		cpus := s.CPUs
		if cpus < 1 {
			cpus = 1
		}
		speed := s.Speed
		if speed <= 0 {
			speed = 1
		}
		load := f.Hosts[i].Load()
		waves := math.Ceil(float64(n) / float64(cpus))
		t := time.Duration(waves * float64(taskDur) * (1 + load) / speed)
		if t > worst {
			worst = t
		}
	}
	return worst
}

// Imbalance returns the coefficient max/mean of per-host task counts
// normalized by CPUs; 1.0 is perfectly balanced.
func (f *Fleet) Imbalance(mappings []sched.Mapping) float64 {
	counts := TaskCounts(mappings)
	if len(counts) == 0 {
		return 0
	}
	var weights []float64
	var sum float64
	for hostL, n := range counts {
		i, ok := f.indexOf(hostL)
		if !ok {
			continue
		}
		cpus := f.catalog[f.specIDs[i]].CPUs
		if cpus < 1 {
			cpus = 1
		}
		w := float64(n) / float64(cpus)
		weights = append(weights, w)
		sum += w
	}
	if len(weights) == 0 || sum == 0 {
		return 0
	}
	mean := sum / float64(len(weights))
	maxW := 0.0
	for _, w := range weights {
		maxW = math.Max(maxW, w)
	}
	return maxW / mean
}
