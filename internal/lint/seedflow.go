package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Seedflow is a conservative taint analysis over seed values in the
// deterministic packages: every explicit-seed RNG sink — the integer
// arguments of math/rand.NewSource, math/rand/v2.NewPCG/NewChaCha8, and
// sim.KeyedSource.SeedKey/Seed — must be fed from the replication seed
// chain (sim.DeriveSeed, sim.Mix64/MixKey2/MixKey3, or values derived
// from parameters/fields that carry chained seeds). Flagged classes:
//
//   - fresh: a literal or otherwise constant seed, including arithmetic
//     over nothing but constants and loop counters. Fresh seeds make
//     replications share (or trivially correlate) their streams instead
//     of deriving independent ones from the campaign seed.
//   - wall-clock: anything computed from time.Now/Since/Until or a
//     time.Time Unix* reading — nondeterministic by construction.
//
// Values of unknown provenance (parameters, struct fields, results of
// other calls) pass: the analysis flags only what it can prove fresh or
// clock-derived, so mixing an unknown base with a constant offset
// (`spec.Seed + 999`) stays clean while `NewSource(42)` and
// `NewSource(time.Now().UnixNano())` do not.
var Seedflow = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "flag literal, arithmetic-fresh, or wall-clock seeds at explicit-seed RNG sinks in " +
		"deterministic packages; derive seeds from sim.DeriveSeed / sim.MixKey chains",
	Run: runSeedflow,
}

// The seed lattice, ordered by join escalation: a variable bound both
// fresh and unknown is unknown (some binding had real provenance), any
// derived binding marks the chain, and wall clock dominates everything.
const (
	seedFresh = iota
	seedUnknown
	seedDerived
	seedWallClock
)

func joinSeed(a, b int) int { return max(a, b) }

// seedChainFuncs are the sim package functions that mint chain-derived
// seeds.
var seedChainFuncs = map[string]bool{
	"DeriveSeed": true, "Mix64": true, "MixKey2": true, "MixKey3": true,
}

// wallClockMethods are the time.Time / time.Duration readings that turn
// a value wall-clock-tainted.
var timeTimeMethods = map[string]bool{
	"Unix": true, "UnixNano": true, "UnixMilli": true, "UnixMicro": true,
}
var timeDurationMethods = map[string]bool{
	"Nanoseconds": true, "Microseconds": true, "Milliseconds": true, "Seconds": true,
}

func runSeedflow(pass *analysis.Pass) error {
	if !deterministicPkgs[pass.Path()] {
		return nil
	}
	info := pass.TypesInfo()
	lintableFuncs(pass, func(fd *ast.FuncDecl) {
		checkSeedflow(pass, info, fd.Body)
	})
	return nil
}

func checkSeedflow(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	var eval func(env analysis.Env, e ast.Expr) int
	eval = func(env analysis.Env, e ast.Expr) int {
		e = ast.Unparen(e)
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return seedFresh // constant-folded: a literal seed however spelled
		}
		switch t := e.(type) {
		case *ast.Ident:
			obj := objOf(info, t)
			if obj == nil {
				return seedUnknown
			}
			if v, ok := env[obj]; ok {
				return v
			}
			return seedUnknown // parameter, field, global: provenance unknown
		case *ast.UnaryExpr:
			return eval(env, t.X)
		case *ast.BinaryExpr:
			return joinSeed(eval(env, t.X), eval(env, t.Y))
		case *ast.CallExpr:
			if tv, ok := info.Types[t.Fun]; ok && tv.IsType() {
				if len(t.Args) == 1 {
					return eval(env, t.Args[0]) // conversion: provenance passes through
				}
				return seedUnknown
			}
			fn := analysis.Callee(info, t)
			if fn == nil {
				return seedUnknown
			}
			pkg := funcPkgPath(fn)
			if pkg == modulePath+"/internal/sim" && seedChainFuncs[fn.Name()] {
				return seedDerived
			}
			if pkg == "time" && wallClockFuncs[fn.Name()] {
				return seedWallClock
			}
			if p, typ, ok := recvNamed(fn); ok && p == "time" {
				if typ == "Time" && timeTimeMethods[fn.Name()] {
					return seedWallClock
				}
				if typ == "Duration" && timeDurationMethods[fn.Name()] {
					// Duration readings inherit the duration's provenance
					// (time.Since(t0).Nanoseconds() is wall clock; a
					// virtual-time difference is not).
					if sel, ok := ast.Unparen(t.Fun).(*ast.SelectorExpr); ok {
						return eval(env, sel.X)
					}
				}
			}
			return seedUnknown
		}
		return seedUnknown
	}

	env := analysis.FlowLocals(info, body, analysis.FlowHooks{
		Eval: eval,
		Join: joinSeed,
		Range: func(_ analysis.Env, _ ast.Expr, isKey bool) int {
			if isKey {
				return seedFresh // loop indices are arithmetic-fresh
			}
			return seedUnknown
		},
	})

	flag := func(arg ast.Expr, sink string) {
		switch eval(env, arg) {
		case seedFresh:
			pass.Reportf(arg.Pos(),
				"%s seeded with a literal/arithmetic-fresh value: derive the seed from the replication chain (sim.DeriveSeed / sim.MixKey2/MixKey3)",
				sink)
		case seedWallClock:
			pass.Reportf(arg.Pos(),
				"%s seeded from the wall clock: deterministic packages must derive seeds from the replication chain (sim.DeriveSeed / sim.MixKey2/MixKey3)",
				sink)
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return true
		}
		switch {
		case isPkgFunc(fn, "math/rand", "NewSource") && len(call.Args) == 1:
			flag(call.Args[0], "rand.NewSource")
		case isPkgFunc(fn, "math/rand/v2", "NewPCG") && len(call.Args) == 2:
			flag(call.Args[0], "rand.NewPCG")
			flag(call.Args[1], "rand.NewPCG")
		case isPkgFunc(fn, "math/rand/v2", "NewChaCha8") && len(call.Args) == 1:
			flag(call.Args[0], "rand.NewChaCha8")
		case isMethodOn(fn, modulePath+"/internal/sim", "KeyedSource", "SeedKey") && len(call.Args) == 1:
			flag(call.Args[0], "KeyedSource.SeedKey")
		case isMethodOn(fn, modulePath+"/internal/sim", "KeyedSource", "Seed") && len(call.Args) == 1:
			flag(call.Args[0], "KeyedSource.Seed")
		}
		return true
	})
}
