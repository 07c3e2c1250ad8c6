package engines

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

const goldenPath = "testdata/plans.golden"

// TestPlansMatchGolden pins every plan a served or benchmarked engine
// compiles for LUBM's 12 queries at scale 1 and for seven shapes over a
// small knows graph: auto's chosen class, the plan of each of auto's three
// classes, the fully optimized core engine and Table I's ablations of it,
// and core.NoOptimizations. A planner refactor that means to move no plan
// must leave the rendering byte-identical; one that does move a plan
// rewrites the file with -update and shows the diff.
func TestPlansMatchGolden(t *testing.T) {
	var b strings.Builder
	lubmStore := func() *store.Store {
		sb := store.NewBuilder()
		lubm.GenerateTo(lubm.Config{Universities: 1}, sb.Add)
		return sb.Build()
	}()
	for _, n := range lubm.QueryNumbers {
		renderPlans(t, &b, fmt.Sprintf("lubm q%d", n), lubm.Query(n, 1), lubmStore)
	}

	const k = `<http://bench/knows>`
	knows := goldenKnows(300, 3000)
	for _, s := range []struct{ name, text string }{
		{"triangle", `SELECT ?x ?y ?z WHERE { ?x ` + k + ` ?y . ?y ` + k + ` ?z . ?z ` + k + ` ?x }`},
		{"4-cycle", `SELECT ?a ?b ?c ?d WHERE { ?a ` + k + ` ?b . ?b ` + k + ` ?c . ?c ` + k + ` ?d . ?d ` + k + ` ?a }`},
		{"lollipop", `SELECT ?a ?b ?c ?d WHERE { ?a ` + k + ` ?b . ?b ` + k + ` ?c . ?c ` + k + ` ?a . ?c ` + k + ` ?d }`},
		{"barbell", `SELECT ?a ?b ?c ?d ?e ?f WHERE { ?a ` + k + ` ?b . ?b ` + k + ` ?c . ?c ` + k + ` ?a . ?c ` + k + ` ?d . ?d ` + k + ` ?e . ?e ` + k + ` ?f . ?f ` + k + ` ?d }`},
		{"2-hop distinct", `SELECT DISTINCT ?x WHERE { ?x ` + k + ` ?y . ?y ` + k + ` ?z }`},
		{"variable predicate", `SELECT ?x ?p ?z WHERE { ?x ?p ?y . ?y ` + k + ` ?z }`},
		{"self-loop", `SELECT ?x WHERE { ?x ` + k + ` ?x }`},
	} {
		renderPlans(t, &b, s.name, s.text, knows)
	}

	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got: %q\nwant: %q\n(go test -run TestPlansMatchGolden -update ./internal/engines/ rewrites it)",
					goldenPath, i+1, lineAt(gl, i), lineAt(wl, i))
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}

// renderPlans appends the plans of text over st under every configuration
// the golden pins.
func renderPlans(t *testing.T, b *strings.Builder, name, text string, st *store.Store) {
	t.Helper()
	q, _ := query.Normalize(query.MustParseSPARQL(text))
	auto := newAuto(st)
	p, err := auto.Plan(q)
	if err != nil {
		t.Fatalf("%s/auto: %v", name, err)
	}
	fmt.Fprintf(b, "== %s / auto chooses %s\n", name, p.Class)
	for _, cls := range plan.Classes() {
		p, err := compileClass(q, st, cls)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, cls, err)
		}
		fmt.Fprintf(b, "-- %s / class %s\n", name, cls)
		renderPlan(b, p)
	}
	ablate := func(f func(*core.Options)) core.Options {
		o := core.AllOptimizations
		f(&o)
		return o
	}
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"all", core.AllOptimizations},
		{"-Layout", ablate(func(o *core.Options) { o.Layout = false })},
		{"-Attribute", ablate(func(o *core.Options) { o.AttributeReorder = false })},
		{"-GHD", ablate(func(o *core.Options) { o.GHDPushdown = false })},
		{"none", core.NoOptimizations},
	} {
		p, err := core.New(st, c.opts).Plan(q)
		if err != nil {
			t.Fatalf("%s/core %s: %v", name, c.name, err)
		}
		fmt.Fprintf(b, "-- %s / core %s\n", name, c.name)
		renderPlan(b, p)
	}
}

// renderPlan prints everything of p that execution reads: the order, the
// projection, the kept group, the set layout policy and, per node, its
// attributes (a selection with its value and triple position), interface,
// relations with their trie levels and children.
func renderPlan(b *strings.Builder, p *plan.Plan) {
	if p.Empty {
		fmt.Fprintf(b, "empty select=%v distinct=%v\n", p.Select, p.Distinct)
		return
	}
	sym := "sym=none"
	if p.Sym != nil {
		sym = p.SymString()
	}
	fmt.Fprintf(b, "order=%v select=%v distinct=%v %s policy=%s\n", p.GlobalOrder, p.Select, p.Distinct, sym, policyNames[p.Policy])
	var walk func(n *plan.Node, indent string)
	walk = func(n *plan.Node, indent string) {
		attrs := make([]string, len(n.Attrs))
		for i, a := range n.Attrs {
			attrs[i] = a.Name
			if a.IsSel {
				attrs[i] += "=" + strconv.Itoa(int(a.Value)) + "@" + strconv.Itoa(a.Pos)
			}
		}
		fmt.Fprintf(b, "%snode attrs=%v vars=%v iface=%v\n", indent, attrs, n.Vars, n.Interface)
		for _, r := range n.Rels {
			levels := make([]string, len(r.Levels))
			for i, a := range r.Levels {
				levels[i] = a.Name
				if a.IsSel {
					levels[i] += "=" + strconv.Itoa(int(a.Value))
				}
				levels[i] += "@" + strconv.Itoa(a.Pos)
			}
			rel := "pred=" + strconv.Itoa(int(r.Pred))
			if r.UseTriples {
				rel = "triples"
			}
			fmt.Fprintf(b, "%s  rel p%d %s levels=%v\n", indent, r.PatternIdx, rel, levels)
		}
		for _, c := range n.Children {
			walk(c, indent+"  ")
		}
	}
	walk(p.Root, "  ")
}

var policyNames = map[set.Policy]string{set.PolicyAuto: "auto", set.PolicyUintOnly: "uint", set.PolicyAdaptive: "adaptive"}

// goldenKnows builds a seeded random digraph over one predicate,
// <http://bench/knows>, without self-loops or repeated edges.
func goldenKnows(nodes, edges int) *store.Store {
	rng := rand.New(rand.NewSource(1))
	knows := rdf.NewIRI("http://bench/knows")
	seen := map[[2]int]bool{}
	sb := store.NewBuilder()
	for len(seen) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		sb.Add(rdf.Triple{S: rdf.NewIRI("http://bench/n" + strconv.Itoa(e[0])), P: knows, O: rdf.NewIRI("http://bench/n" + strconv.Itoa(e[1]))})
	}
	return sb.Build()
}
