package workload

// This file adds three workload families beyond the Table I catalog,
// used by the cross-workload hint-transfer study and as extra
// calibration points for imported-trace comparisons. Each family picks
// the class mix of a well-known data center code shape:
//
//   - interp-dispatch: a bytecode interpreter's dispatch loop. A large
//     hot core of history-correlated branches (the opcode sequence is
//     the history), python-like MPKI at the top of the paper's band.
//   - gc-mark: a garbage collector's mark phase. Loop- and
//     data-dependent-heavy (pointer-graph shape decides the scan), a
//     mid-band app whose hard branches are exactly the class
//     profile-guided hints cannot help, keeping transfer gains honest.
//   - rpc-chain: a microservice RPC chain. Guard-dominated like
//     kafka/finagle with a flat popularity profile, at the easy end of
//     the band.
//
// Like the Table I apps they share the 0x400000 code layout, so static
// PCs partially collide across applications — which is what makes the
// transfer study's overlap metric (and transferred hints hitting real
// branches) non-trivial.

// familySpecs returns the extra-family catalog.
func familySpecs() []AppSpec {
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
		mk("interp-dispatch", "Bytecode interpreter dispatch loop", 0x1D15, 650, 9, 0.40,
			Mix{Biased: 0.910, Loop: 0.020, ShortHist: 0.0126, LongHist: 0.0144, ComplexHist: 0.0126, DataDep: 0.0072}, 0.00648),
		mk("gc-mark", "Tracing collector mark phase", 0x6C3A, 480, 7, 0.50,
			Mix{Biased: 0.940, Loop: 0.032, ShortHist: 0.0072, LongHist: 0.0054, ComplexHist: 0.0054, DataDep: 0.0081}, 0.00504),
		mk("rpc-chain", "Microservice RPC fan-out chain", 0x49C4, 320, 5, 0.58,
			Mix{Biased: 0.975, Loop: 0.018, ShortHist: 0.0033, LongHist: 0.0016, ComplexHist: 0.0016, DataDep: 0.0011}, 0.00173),
	}
}

// FamilyApps instantiates the extra workload families.
func FamilyApps() []*App {
	specs := familySpecs()
	apps := make([]*App, len(specs))
	for i, s := range specs {
		apps[i] = MustNew(s.Config)
	}
	return apps
}

// AppByName instantiates any catalogued application — Table I, extra
// family, or SPEC-like — by name, or nil if the name is unknown.
func AppByName(name string) *App {
	if a := DataCenterApp(name); a != nil {
		return a
	}
	for _, s := range familySpecs() {
		if s.Config.Name == name {
			return MustNew(s.Config)
		}
	}
	for _, a := range SpecApps() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}
