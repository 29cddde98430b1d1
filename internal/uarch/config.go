// Package uarch implements a cycle-accurate, speculative out-of-order RISC-V
// core model with taint-tracked microarchitectural state.
//
// The model is the reproduction substrate for the two cores the paper
// evaluates: a SmallBOOM-like configuration and a XiangShan-MinimalConfig-like
// configuration. It executes real encoded instructions fetched through an
// instruction cache, speculates through branch prediction, raises exceptions
// at commit, and leaves behind exactly the classes of microarchitectural
// residue (cache fills, TLB fills, predictor updates, buffer contents, port
// contention) that transient execution attacks encode secrets into.
//
// Every state element carries a taint shadow propagated with the policies in
// internal/ift, in one of three modes: off, CellIFT (control over-tainting),
// or diffIFT (control taints gated on cross-instance differences).
package uarch

// CoreKind distinguishes the two modelled cores.
type CoreKind int

const (
	KindBOOM CoreKind = iota
	KindXiangShan
)

func (k CoreKind) String() string {
	if k == KindXiangShan {
		return "XiangShan"
	}
	return "BOOM"
}

// BugSet gates the injected transient-execution bugs (the paper's B1-B5).
type BugSet struct {
	// MeltdownSampling (B1, CVE-2024-44594, XiangShan): inconsistent wire
	// widths truncate the high bits of an illegal load address on the
	// pipeline->load-unit path, so the transient data access samples the
	// truncated (valid) address while the fault check sees the full one.
	MeltdownSampling bool
	// PhantomRSB (B2, CVE-2024-44591, BOOM): transient calls update return
	// stack entries; misprediction recovery restores only the TOS pointer
	// and the top entry, leaving corrupted entries below TOS.
	PhantomRSB bool
	// PhantomBTB (B3, CVE-2024-44590, BOOM): when an indirect-jump
	// misprediction resolves in the same cycle as an exception commit, the
	// jump's BTB correction is applied to the excepting instruction's PC.
	PhantomBTB bool
	// SpectreRefetch (B4, CVE-2024-44592/44593, both): a transient fetch
	// that misses the icache keeps the fetch port busy across the squash,
	// delaying the first post-window fetch.
	SpectreRefetch bool
	// SpectreReload (B5, CVE-2024-44595, XiangShan): the load pipeline and
	// the load queue contend on a single load write-back port, so transient
	// cache-hitting loads delay the write-back of an earlier cache-missing
	// load.
	SpectreReload bool
}

// Witness names the mechanism-level evidence of one injected bug: the
// count a core keeps in BugWitness each time that bug's code path fires.
// The constants follow their labels' sorted order.
type Witness int

const (
	WitnessMeltdownSampling   Witness = iota // B1: a truncated address sampled data
	WitnessPhantomBTB                        // B3: a jalr correction went to an excepting pc
	WitnessPhantomRSB                        // B2: a transient RAS write survived recovery
	WitnessSpectreRefetchMiss                // B4: a fetch miss kept the fetch port busy
	WitnessSpectreReload                     // B5: a load waited for the write-back port
	NumWitnesses
)

var witnessLabels = [NumWitnesses]string{
	"meltdown-sampling", "phantom-btb", "phantom-rsb", "spectre-refetch-miss", "spectre-reload",
}

// String returns the witness's finding label.
func (w Witness) String() string { return witnessLabels[w] }

// CacheConfig sizes one cache.
type CacheConfig struct {
	Sets      int
	Ways      int
	LineBytes int
	HitLat    int
	MissLat   int
	MSHRs     int
}

// TLBConfig sizes one TLB level.
type TLBConfig struct {
	Entries  int
	HitLat   int
	MissLat  int // added latency on miss into the next level / page walk
	PageBits uint
}

// Config describes a core instance.
type Config struct {
	Name string
	Kind CoreKind

	FetchWidth  int
	DecodeWidth int
	CommitWidth int
	ROBEntries  int
	LDQEntries  int
	STQEntries  int

	// Frontend predictors.
	BHTEntries    int
	BTBEntries    int
	FauBTBEntries int // first-level (zero-bubble) BTB
	RASEntries    int
	LoopEntries   int
	LoopTripMax   int // taken streak after which the loop predictor predicts exit
	// IndirectMinConf is how many consistent trainings the indirect target
	// predictor needs before providing a prediction (XiangShan-style target
	// confidence; BOOM predicts after one).
	IndirectMinConf int

	ICache CacheConfig
	DCache CacheConfig
	ITLB   TLBConfig
	DTLB   TLBConfig
	L2TLB  TLBConfig

	// Execution resources.
	ALUs        int
	LoadPorts   int
	LoadWBPorts int
	FPUs        int
	MulLat      int
	DivLat      int
	FPULat      int
	FDivLat     int

	// Microarchitectural policy switches (the behaviours the fuzzer probes).
	IllegalAtDecode          bool // BOOM: illegal instrs flush at decode (no window)
	TransientLoadForward     bool // Meltdown root cause: faulting loads forward data
	TransientPredictorUpdate bool // predictors update from squashed instructions

	// TrapLatency is the cycle count between recognising a trap at the RoB
	// head and completing the pipeline flush. Younger instructions keep
	// executing during this drain — it is the exception-type transient
	// window's length.
	TrapLatency int

	// PhysAddrBits is the truncated address width on the pipeline->LSU path
	// (only consulted when Bugs.MeltdownSampling is set).
	PhysAddrBits uint

	Bugs BugSet

	// AnnotationLoC is the documented manual liveness-annotation effort for
	// the Table 2 analogue.
	AnnotationLoC int
}

// BOOMConfig returns the SmallBOOM-like core. The published bugs B2-B4 are
// enabled by default, mirroring the (unfixed) BOOM the paper evaluated.
func BOOMConfig() Config {
	return Config{
		Name: "SmallBOOM", Kind: KindBOOM,
		FetchWidth: 2, DecodeWidth: 2, CommitWidth: 2,
		ROBEntries: 32, LDQEntries: 8, STQEntries: 8,
		BHTEntries: 128, BTBEntries: 32, FauBTBEntries: 8,
		RASEntries: 8, LoopEntries: 16, LoopTripMax: 7,
		IndirectMinConf: 1,
		ICache:          CacheConfig{Sets: 16, Ways: 2, LineBytes: 32, HitLat: 1, MissLat: 12, MSHRs: 2},
		DCache:          CacheConfig{Sets: 16, Ways: 2, LineBytes: 32, HitLat: 2, MissLat: 16, MSHRs: 2},
		ITLB:            TLBConfig{Entries: 8, HitLat: 0, MissLat: 4, PageBits: 12},
		DTLB:            TLBConfig{Entries: 8, HitLat: 0, MissLat: 4, PageBits: 12},
		L2TLB:           TLBConfig{Entries: 32, HitLat: 2, MissLat: 20, PageBits: 12},
		ALUs:            2, LoadPorts: 1, LoadWBPorts: 2, FPUs: 1,
		MulLat: 3, DivLat: 16, FPULat: 4, FDivLat: 20,
		IllegalAtDecode:          true,
		TransientLoadForward:     true,
		TransientPredictorUpdate: true,
		TrapLatency:              24,
		PhysAddrBits:             32,
		Bugs: BugSet{
			PhantomRSB:     true,
			PhantomBTB:     true,
			SpectreRefetch: true,
		},
		AnnotationLoC: 212,
	}
}

// XiangShanConfig returns the MinimalConfig-like core: larger structures,
// squash-protected predictors, and the published bugs B1/B4/B5.
func XiangShanConfig() Config {
	return Config{
		Name: "MinimalXiangShan", Kind: KindXiangShan,
		FetchWidth: 2, DecodeWidth: 2, CommitWidth: 2,
		ROBEntries: 48, LDQEntries: 16, STQEntries: 16,
		BHTEntries: 256, BTBEntries: 64, FauBTBEntries: 16,
		RASEntries: 16, LoopEntries: 32, LoopTripMax: 7,
		IndirectMinConf: 2,
		ICache:          CacheConfig{Sets: 32, Ways: 2, LineBytes: 32, HitLat: 1, MissLat: 14, MSHRs: 4},
		DCache:          CacheConfig{Sets: 32, Ways: 4, LineBytes: 32, HitLat: 2, MissLat: 18, MSHRs: 4},
		ITLB:            TLBConfig{Entries: 16, HitLat: 0, MissLat: 4, PageBits: 12},
		DTLB:            TLBConfig{Entries: 16, HitLat: 0, MissLat: 4, PageBits: 12},
		L2TLB:           TLBConfig{Entries: 64, HitLat: 2, MissLat: 24, PageBits: 12},
		ALUs:            3, LoadPorts: 2, LoadWBPorts: 1, FPUs: 1,
		MulLat: 3, DivLat: 16, FPULat: 4, FDivLat: 20,
		IllegalAtDecode:          false, // illegal instrs trap at commit: window exists
		TransientLoadForward:     true,
		TransientPredictorUpdate: false, // predictor updates are squash-protected
		TrapLatency:              28,
		PhysAddrBits:             16, // B1 truncation: low 16 bits survive
		Bugs: BugSet{
			MeltdownSampling: true,
			SpectreRefetch:   true,
			SpectreReload:    true,
		},
		AnnotationLoC: 592,
	}
}

// ConfigFor returns the preset for a core kind.
func ConfigFor(kind CoreKind) Config {
	if kind == KindXiangShan {
		return XiangShanConfig()
	}
	return BOOMConfig()
}
