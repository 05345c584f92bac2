package workload

// This file instantiates the application catalog: the 12 data center
// applications of the paper's Table I and a 10-member SPEC2017-like
// family used for the Fig 5 concentration contrast.
//
// Per-app parameters are calibrated (see EXPERIMENTS.md) so the 64KB
// TAGE-SC-L baseline lands inside the paper's reported branch-MPKI band
// (0.5-7.2, average ~3.0) with capacity-dominated mispredictions. The
// *relative* character of each app follows the paper's figures: python
// and clang are the hardest (MPKI ~7 and ~5), kafka and cassandra the
// easiest, the PHP trio (drupal/mediawiki/wordpress) sits in the middle
// with flat misprediction CDFs.

// AppSpec pairs a Config with the paper workload description (Table I).
type AppSpec struct {
	Config   Config
	Workload string
}

// dcSpecs returns the Table I catalog.
func dcSpecs() []AppSpec {
	mk := func(name, wl string, seed uint64, fns, brPerFn int, zipf float64,
		mix Mix, noise float64) AppSpec {
		return AppSpec{
			Config: Config{
				Name:           name,
				Seed:           seed,
				Functions:      fns,
				BranchesPerFn:  brPerFn,
				ZipfS:          zipf,
				InstrPerRecord: 5,
				Mix:            mix,
				Noise:          noise,
				InputVariance:  0.06,
				Inputs:         6,
			},
			Workload: wl,
		}
	}
	return []AppSpec{
		mk("cassandra", "Java DaCapo benchmark suite", 0xCA55, 350, 6, 0.55,
			Mix{Biased: 0.957, Loop: 0.020, ShortHist: 0.0072, LongHist: 0.0036, ComplexHist: 0.0036, DataDep: 0.00216}, 0.00216),
		mk("clang", "Building LLVM", 0xC1A6, 600, 8, 0.45,
			Mix{Biased: 0.885, Loop: 0.020, ShortHist: 0.0252, LongHist: 0.01584, ComplexHist: 0.01656, DataDep: 0.0108}, 0.00576),
		mk("drupal", "Facebook OSS-performance suite", 0xD8A1, 450, 7, 0.50,
			Mix{Biased: 0.923, Loop: 0.020, ShortHist: 0.018, LongHist: 0.00864, ComplexHist: 0.00864, DataDep: 0.00576}, 0.00432),
		mk("finagle-chirper", "Java Renaissance benchmark suite", 0xF1C4, 400, 6, 0.55,
			Mix{Biased: 0.9385, Loop: 0.020, ShortHist: 0.01224, LongHist: 0.00576, ComplexHist: 0.00576, DataDep: 0.00396}, 0.0036),
		mk("finagle-http", "Java Renaissance benchmark suite", 0xF144, 380, 6, 0.55,
			Mix{Biased: 0.9454, Loop: 0.020, ShortHist: 0.0108, LongHist: 0.00526, ComplexHist: 0.00526, DataDep: 0.0036}, 0.00324),
		mk("kafka", "Java DaCapo benchmark suite", 0x5AF5, 250, 5, 0.60,
			Mix{Biased: 0.975, Loop: 0.015, ShortHist: 0.00216, LongHist: 0.00108, ComplexHist: 0.00108, DataDep: 0.00072}, 0.00086),
		mk("mediawiki", "Facebook OSS-performance suite", 0x3ED1, 420, 7, 0.50,
			Mix{Biased: 0.9265, Loop: 0.020, ShortHist: 0.01584, LongHist: 0.00792, ComplexHist: 0.00792, DataDep: 0.0054}, 0.00432),
		mk("mysql", "Different TPC-C queries", 0x3501, 550, 8, 0.45,
			Mix{Biased: 0.901, Loop: 0.020, ShortHist: 0.0216, LongHist: 0.01296, ComplexHist: 0.01296, DataDep: 0.00936}, 0.00504),
		mk("postgres", "Different pgbench queries", 0x9057, 500, 8, 0.45,
			Mix{Biased: 0.912, Loop: 0.020, ShortHist: 0.02016, LongHist: 0.0108, ComplexHist: 0.0108, DataDep: 0.0072}, 0.00504),
		mk("python", "pyperformance benchmarks", 0x9774, 700, 9, 0.40,
			Mix{Biased: 0.865, Loop: 0.020, ShortHist: 0.0216, LongHist: 0.0216, ComplexHist: 0.0216, DataDep: 0.018}, 0.00648),
		mk("tomcat", "Java DaCapo benchmark suite", 0x703C, 350, 6, 0.55,
			Mix{Biased: 0.9425, Loop: 0.020, ShortHist: 0.00936, LongHist: 0.00468, ComplexHist: 0.00468, DataDep: 0.00324}, 0.00288),
		mk("wordpress", "Facebook OSS-performance suite", 0x30D9, 430, 7, 0.50,
			Mix{Biased: 0.9235, Loop: 0.020, ShortHist: 0.01656, LongHist: 0.00828, ComplexHist: 0.00828, DataDep: 0.00612}, 0.00432),
	}
}

// DataCenterSpecs returns the Table I application specifications.
func DataCenterSpecs() []AppSpec { return dcSpecs() }

// DataCenterApps instantiates the 12 Table I applications.
func DataCenterApps() []*App {
	specs := dcSpecs()
	apps := make([]*App, len(specs))
	for i, s := range specs {
		apps[i] = MustNew(s.Config)
	}
	return apps
}

// DataCenterApp instantiates one Table I application by name, or nil.
func DataCenterApp(name string) *App {
	for _, s := range dcSpecs() {
		if s.Config.Name == name {
			return MustNew(s.Config)
		}
	}
	return nil
}

// SpecApps instantiates a 10-member SPEC2017-int-like family: few static
// branches, strongly concentrated popularity, with the hard branches
// concentrated in the top ranks — the regime where BranchNet's top-K
// assumption holds (paper Fig 5a).
func SpecApps() []*App {
	names := []string{
		"deepsjeng", "exchange2", "gcc", "leela", "mcf",
		"omnetpp", "perlbench", "x264", "xalancbmk", "xz",
	}
	apps := make([]*App, len(names))
	for i, n := range names {
		fns := 60
		mix := Mix{Biased: 0.905, Loop: 0.025, ShortHist: 0.025, LongHist: 0.0160, ComplexHist: 0.0160, DataDep: 0.0130}
		if n == "gcc" {
			// The paper singles out gcc as the one SPEC benchmark with a
			// flat, data-center-like misprediction distribution.
			fns = 900
		}
		apps[i] = MustNew(Config{
			Name:           "spec-" + n,
			Seed:           0x57EC0000 + uint64(i),
			Functions:      fns,
			BranchesPerFn:  6,
			ZipfS:          1.35,
			InstrPerRecord: 5,
			Mix:            mix,
			Noise:          0.010,
			InputVariance:  0.10,
			Inputs:         2,
		})
	}
	return apps
}

// Scale selects how many records experiments generate per application.
type Scale int

// Scales: Small keeps the full suite in laptop territory; Full
// approximates the paper's 100M-instruction windows.
const (
	ScaleTiny  Scale = iota // CI-sized
	ScaleSmall              // default for experiments
	ScaleFull               // paper-sized (slow)
)

// Records returns the per-app record budget for the scale.
func (s Scale) Records() int {
	switch s {
	case ScaleTiny:
		return 60_000
	case ScaleSmall:
		return 400_000
	default:
		return 4_000_000
	}
}
