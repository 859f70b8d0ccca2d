package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// modulePath is the import-path root the project-specific rules key off.
const modulePath = "highrpm"

// deterministicPkgs are the model/estimation packages where every source
// of randomness or time must be injected (seeded *rand.Rand, explicit
// clock): the paper requires TRR/SRR estimates to be reproducible per
// seed, and the golden SHA-256 determinism tests depend on it.
var deterministicPkgs = map[string]bool{
	modulePath + "/internal/core":     true,
	modulePath + "/internal/neural":   true,
	modulePath + "/internal/tree":     true,
	modulePath + "/internal/linmodel": true,
	modulePath + "/internal/svm":      true,
	modulePath + "/internal/model":    true,
	modulePath + "/internal/interp":   true,
	modulePath + "/internal/stats":    true,
}

// Default returns the full project rule set.
func Default() []Analyzer {
	return []Analyzer{
		determinism{},
		maporder{},
		floateq{},
		leakcheck{},
		errdrop{},
	}
}

// pkgNameOf resolves an identifier to the imported package it names, or
// nil when it is not a package qualifier.
func pkgNameOf(pass *Pass, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pass.Pkg.Info.Uses[id].(*types.PkgName)
	return pn
}

// qualifiedCall returns the package path and function name of a call to a
// package-level function of an imported package ("math/rand", "Intn").
func qualifiedCall(pass *Pass, call *ast.CallExpr) (pkg, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	pn := pkgNameOf(pass, sel.X)
	if pn == nil {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// inspectNonTest walks every non-test file of the unit.
func inspectNonTest(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.Ast, fn)
	}
}

// ---------------------------------------------------------------------------
// determinism

type determinism struct{}

func (determinism) Name() string { return "determinism" }
func (determinism) Doc() string {
	return "forbid global math/rand, wall-clock time.Now/time.Since, os.Getenv and runtime.GOMAXPROCS/NumCPU in the deterministic model packages"
}

// seededRandCtors are the math/rand entry points that construct an
// explicitly seeded generator rather than drawing from the global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func (determinism) Run(pass *Pass) {
	if !deterministicPkgs[pass.Pkg.BasePath()] || pass.Pkg.XTest {
		return
	}
	inspectNonTest(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := qualifiedCall(pass, call)
		if !ok {
			return true
		}
		switch pkg {
		case "math/rand", "math/rand/v2":
			if !seededRandCtors[name] {
				pass.Reportf(call.Pos(), "call to rand.%s draws from the global source; use a *rand.Rand seeded from an injected seed", name)
			}
		case "time":
			if name == "Now" || name == "Since" {
				pass.Reportf(call.Pos(), "wall-clock time.%s in a deterministic package; inject a clock or move the measurement out of the model", name)
			}
		case "os":
			if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
				pass.Reportf(call.Pos(), "os.%s makes model behavior depend on the environment; plumb the value through Options", name)
			}
		case "runtime":
			if name == "GOMAXPROCS" || name == "NumCPU" {
				pass.Reportf(call.Pos(), "runtime.%s makes model behavior depend on the machine's core count; a model must be a function of seed and data alone", name)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// floateq

type floateq struct{}

func (floateq) Name() string { return "floateq" }
func (floateq) Doc() string {
	return "forbid ==/!= between floating-point operands outside tests (exact-zero guards and x!=x NaN checks allowed)"
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func (f floateq) Run(pass *Pass) {
	info := pass.Pkg.Info
	isZeroConst := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Value == nil {
			return false
		}
		k := tv.Value.Kind()
		return (k == constant.Int || k == constant.Float) && constant.Sign(tv.Value) == 0
	}
	inspectNonTest(pass, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op.String() != "==" && be.Op.String() != "!=") {
			return true
		}
		tx, ty := info.TypeOf(be.X), info.TypeOf(be.Y)
		if tx == nil || ty == nil || !isFloat(tx) || !isFloat(ty) {
			return true
		}
		// Exact-zero guards (division, "unset" sentinels) are
		// well-defined float comparisons.
		if isZeroConst(be.X) || isZeroConst(be.Y) {
			return true
		}
		// x != x is the idiomatic NaN check.
		if types.ExprString(be.X) == types.ExprString(be.Y) {
			return true
		}
		pass.Reportf(be.OpPos, "floating-point %s comparison; compare within an epsilon, use math.IsNaN, or justify with lint:ignore", be.Op)
		return true
	})
}

// ---------------------------------------------------------------------------
// errdrop

type errdrop struct{}

func (errdrop) Name() string { return "errdrop" }
func (errdrop) Doc() string {
	return "forbid silently discarding the error returned by Close/Flush/Write/Sync/Shutdown in non-test code"
}

var errdropNames = map[string]bool{
	// Sync joined the list with the WAL: a dropped fsync error silently
	// voids the durability guarantee the call was there to buy.
	"Close": true, "Flush": true, "Write": true, "Sync": true, "Shutdown": true,
}

var errType = types.Universe.Lookup("error").Type()

func (errdrop) Run(pass *Pass) {
	info := pass.Pkg.Info
	inspectNonTest(pass, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		default:
			return true
		}
		if !errdropNames[name] {
			return true
		}
		sig, ok := info.TypeOf(call.Fun).(*types.Signature)
		if !ok || sig.Results().Len() == 0 {
			return true
		}
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		if !types.Identical(last, errType) {
			return true
		}
		pass.Reportf(call.Pos(), "error returned by %s is silently discarded; handle it or assign to _ explicitly", name)
		return true
	})
}
