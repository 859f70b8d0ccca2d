package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// leakcheck enforces the goroutine-guard test-suite convention introduced
// with the fault-tolerance work and since extended to the observability
// server, the tsdb read path, and the fleet router: every Test* under
// internal/cluster/..., internal/obs/..., internal/tsdb/... or
// internal/fleet/... that spawns goroutines — directly, through package
// helpers, by starting a service, agent, router, or HTTP server, or by
// driving the store's parallel fan-out — must arm the leaktest.Check
// goroutine-leak guard so a handler, reconnect loop, serve goroutine, or
// stuck query worker that outlives its test fails the suite.
type leakcheck struct{}

func (leakcheck) Name() string { return "leakcheck" }
func (leakcheck) Doc() string {
	return "cluster, obs, tsdb and fleet tests that spawn goroutines or start servers must call leaktest.Check"
}

// spawnAPINames are cluster/obs/tsdb entry points known to start
// background goroutines even when the call resolves outside the analyzed
// unit (e.g. an external test package dialing a service, listening an
// obs server, or opening a durable store — tsdb.Open starts the WAL
// batch flusher under the default fsync policy).
var spawnAPINames = map[string]bool{
	"Listen": true, "Serve": true, "Dial": true, "Start": true, "Open": true,
}

// leakGuardPkg holds the guard, leaktest.Check; a look-alike declared
// anywhere else arms nothing.
const leakGuardPkg = modulePath + "/internal/leaktest"

// leakcheckedPrefixes are the package trees the convention covers.
var leakcheckedPrefixes = []string{
	modulePath + "/internal/cluster",
	modulePath + "/internal/obs",
	// The tsdb read path fans queries out across per-shard worker
	// goroutines and hands out pooled decode state; a test that wedges a
	// worker would leak it silently without the guard.
	modulePath + "/internal/tsdb",
	// The fleet router spawns a goroutine per accepted connection, per
	// replica forward, and per scatter-gather shard; a test that leaves a
	// router or its pooled agents running would leak all of them.
	modulePath + "/internal/fleet",
}

func leakcheckedPkg(path string) bool {
	for _, p := range leakcheckedPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

func (leakcheck) Run(pass *Pass) {
	if !leakcheckedPkg(pass.Pkg.BasePath()) {
		return
	}
	info := pass.Pkg.Info

	decls := make(map[*types.Func]*ast.FuncDecl)
	declFile := make(map[*types.Func]*File)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
				declFile[obj] = f
			}
		}
	}

	callee := func(call *ast.CallExpr) *types.Func {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			fn, _ := info.Uses[fun].(*types.Func)
			return fn
		case *ast.SelectorExpr:
			fn, _ := info.Uses[fun.Sel].(*types.Func)
			return fn
		}
		return nil
	}

	spawns := make(map[*types.Func]bool)
	guards := make(map[*types.Func]bool)
	calls := make(map[*types.Func][]*types.Func)
	for obj, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				spawns[obj] = true
			case *ast.CallExpr:
				fn := callee(s)
				if fn == nil {
					return true
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == leakGuardPkg && fn.Name() == "Check" {
					guards[obj] = true
				}
				if fn.Pkg() != nil && leakcheckedPkg(fn.Pkg().Path()) && spawnAPINames[fn.Name()] {
					spawns[obj] = true
				}
				if _, local := decls[fn]; local {
					calls[obj] = append(calls[obj], fn)
				}
			}
			return true
		})
	}

	// Propagate both properties through package-local helpers to a
	// fixpoint: a test spawning via startService(t) is still a spawner,
	// and a setup helper that arms the guard still guards its caller.
	for changed := true; changed; {
		changed = false
		for obj, cs := range calls {
			for _, c := range cs {
				if spawns[c] && !spawns[obj] {
					spawns[obj] = true
					changed = true
				}
				if guards[c] && !guards[obj] {
					guards[obj] = true
					changed = true
				}
			}
		}
	}

	for obj, fd := range decls {
		f := declFile[obj]
		if !f.Test || !strings.HasPrefix(obj.Name(), "Test") {
			continue
		}
		if fd.Type.Params == nil || len(fd.Type.Params.List) != 1 {
			continue
		}
		if spawns[obj] && !guards[obj] {
			pass.Reportf(fd.Pos(), "%s spawns goroutines or starts a service but never arms leaktest.Check", obj.Name())
		}
	}
}
