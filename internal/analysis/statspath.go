package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
)

// statsPkgPath is the package whose Registry/Scope/Snapshot methods take
// dotted metric paths.
const statsPkgPath = "uopsim/internal/stats"

// metricPathRE is the path grammar: lowercase dotted segments of
// [a-z0-9_]. Uppercase, spaces, leading/trailing/double dots are all
// rejected — Snapshot ordering, the Prometheus exporter's name mangling,
// and the figure drivers' literal lookups each assume this shape.
var metricPathRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)

// registerMethods are Registry/Scope calls that create a registration; a
// duplicate full path among them panics at simulator construction, so the
// same literal registered twice on the same receiver is reported at lint
// time. Family reserves a labelled counter family's name; its members'
// label values (Family.RegisterCounter) are free text, not paths.
var registerMethods = map[string]bool{
	"Counter":         true,
	"RegisterCounter": true,
	"RegisterGauge":   true,
	"RegisterTotal":   true,
	"RegisterMean":    true,
	"RegisterHist":    true,
	"RegisterDist":    true,
	"Family":          true,
}

// pathMethods additionally take a metric path (or scope prefix) first
// argument that must satisfy the grammar. Sample entered with the
// warehouse instrumentation (experiments query-by-snapshot-path): it
// takes the same dotted paths as Value and was a silent gap before.
var pathMethods = map[string]bool{
	"Scope":        true,
	"Value":        true,
	"Sample":       true,
	"HistFraction": true,
	"DistFraction": true,
}

// StatsPath validates string literals handed to the stats registry: every
// registration, scope prefix, and snapshot lookup must be a lowercase
// dotted path, and no two registrations in a package may pass the same
// literal to the same receiver (that is a duplicate-path panic waiting for
// the first simulator construction).
var StatsPath = &Analyzer{
	Name: "statspath",
	Doc:  "validate stats.Registry metric path literals (grammar + per-receiver duplicates)",
	Run:  runStatsPath,
}

func runStatsPath(pass *Pass) {
	type regSite struct {
		recv string
		lit  string
	}
	firstSeen := map[regSite]ast.Node{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if !registerMethods[name] && !pathMethods[name] {
				return true
			}
			recvType, ok := statsReceiver(pass, sel)
			if !ok {
				return true
			}
			// Snapshot methods named like registrations (Counter) are
			// lookups; only Registry/Scope calls create registrations.
			registers := registerMethods[name] && recvType != "Snapshot"
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true // dynamic paths are built from validated parts
			}
			path, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !metricPathRE.MatchString(path) {
				pass.Reportf(lit.Pos(),
					"metric path %q does not match the lowercase dotted-path grammar ^[a-z0-9_]+(\\.[a-z0-9_]+)*$ expected by the registry, exporters, and figure lookups", path)
				return true
			}
			if !registers {
				return true
			}
			site := regSite{recv: types.ExprString(sel.X), lit: path}
			if prev, dup := firstSeen[site]; dup {
				prevPos := pass.Pkg.Fset.Position(prev.Pos())
				pass.Reportf(lit.Pos(),
					"metric path %q is registered twice on %s (first at %s:%d); the second registration panics at simulator construction", path, site.recv, prevPos.Filename, prevPos.Line)
			} else {
				firstSeen[site] = call
			}
			return true
		})
	}
}

// statsReceiver reports whether sel is a method selection on a
// stats.Registry, stats.Scope, or stats.Snapshot receiver, and which one.
func statsReceiver(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	s, ok := pass.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	named, ok := deref(s.Recv()).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != statsPkgPath {
		return "", false
	}
	switch obj.Name() {
	case "Registry", "Scope", "Snapshot":
		return obj.Name(), true
	}
	return "", false
}
