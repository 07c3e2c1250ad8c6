package main

// data.go generates every input of a run from the seed: the dataset file the
// server loads, the query texts, the request cycle and the patch stream. The
// server receives only that file and HTTP requests.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/lubm"
	"repro/internal/rdf"
)

const (
	knowsIRI = "http://bench/knows"

	// lubmSeed is fixed: the generator draws 15–25 departments per
	// university, so its own seed moves the dataset size by ±7% and
	// University0 (q8's constant) by ±20% — more than any bound in
	// BENCHMARK.json. The run seed drives everything that does not change
	// how much work a query is: the knows graph, which constants are
	// queried, the request order and the patch stream.
	lubmSeed = 0
)

// size is the dataset scale of a run.
type size struct {
	universities int
	knowsNodes   int
	knowsEdges   int
	poolTexts    int // distinct select_point texts
}

var (
	fullSize  = size{universities: 4, knowsNodes: 20000, knowsEdges: 200000, poolTexts: 2000}
	smokeSize = size{universities: 1, knowsNodes: 2000, knowsEdges: 20000, poolTexts: 300}
)

// dataset is the generated graph plus the constants harvested from it.
type dataset struct {
	triples []rdf.Triple

	gradCourses []string // q1
	asstProfs   []string // q3
	depts       []string // q4, q5
	assocProfs  []string // q7
	univs       []string // q11, q12

	// teaches pairs an assistant professor with an undergraduate course
	// they teach: a student advised by the one and taking the other is a
	// q9 row.
	teaches [][2]string
	// takes are the base takesCourse triples, the patch stream's deletes.
	takes []rdf.Triple
}

// generate builds the dataset for sz and seed.
func generate(sz size, seed int64) *dataset {
	d := &dataset{}
	asst := map[string]bool{}
	var teacherOf [][2]string
	lubm.GenerateTo(lubm.Config{Universities: sz.universities, Seed: lubmSeed}, func(t rdf.Triple) {
		d.triples = append(d.triples, t)
		switch t.P.Value {
		case lubm.RDFTypeIRI:
			switch t.O.Value {
			case lubm.ClassGraduateCourse:
				d.gradCourses = append(d.gradCourses, t.S.Value)
			case lubm.ClassAssistantProfessor:
				d.asstProfs = append(d.asstProfs, t.S.Value)
				asst[t.S.Value] = true
			case lubm.ClassAssociateProfessor:
				d.assocProfs = append(d.assocProfs, t.S.Value)
			case lubm.ClassDepartment:
				d.depts = append(d.depts, t.S.Value)
			case lubm.ClassUniversity:
				d.univs = append(d.univs, t.S.Value)
			}
		case lubm.PropTeacherOf:
			teacherOf = append(teacherOf, [2]string{t.S.Value, t.O.Value})
		case lubm.PropTakesCourse:
			d.takes = append(d.takes, t)
		}
	})
	for _, p := range teacherOf {
		if asst[p[0]] && strings.Contains(p[1], "/Course") {
			d.teaches = append(d.teaches, p)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	knows := rdf.NewIRI(knowsIRI)
	seen := make(map[[2]int32]bool, sz.knowsEdges)
	for len(seen) < sz.knowsEdges {
		e := [2]int32{int32(rng.Intn(sz.knowsNodes)), int32(rng.Intn(sz.knowsNodes))}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		d.triples = append(d.triples, rdf.Triple{
			S: rdf.NewIRI("http://bench/n" + strconv.Itoa(int(e[0]))),
			P: knows,
			O: rdf.NewIRI("http://bench/n" + strconv.Itoa(int(e[1]))),
		})
	}
	return d
}

// writeNT writes the dataset as N-Triples.
func (d *dataset) writeNT(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, t := range d.triples {
		bw.WriteString(t.String())
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// request is one distinct thing a client sends: a query text in a format.
type request struct {
	class string // metric class, e.g. "q14_tsv"
	text  string
	tsv   bool
}

const triText = `SELECT ?x ?y ?z WHERE {
  ?x <` + knowsIRI + `> ?y .
  ?y <` + knowsIRI + `> ?z .
  ?z <` + knowsIRI + `> ?x .
}`

// fixedRequests are the classes whose text does not depend on the seed.
func fixedRequests(sz size) map[string]request {
	q := func(n int) string { return lubm.Query(n, sz.universities) }
	m := map[string]request{
		"tri":       {text: triText},
		"q1":        {text: q(1)},
		"q2":        {text: q(2)},
		"q5":        {text: q(5)},
		"q9":        {text: q(9)},
		"q8_json":   {text: q(8)},
		"q8_tsv":    {text: q(8), tsv: true},
		"q14_json":  {text: q(14)},
		"q14_tsv":   {text: q(14), tsv: true},
		"q14_limit": {text: q(14) + "\nLIMIT 1000"},
	}
	for name, r := range m {
		r.class = name
		m[name] = r
	}
	return m
}

// pointTemplate is one constant-rooted LUBM template of select_point: the
// constant it carries in the paper's text and the pool it is re-bound from.
type pointTemplate struct {
	class string
	n     int
	old   string
	pool  []string
}

func (d *dataset) pointTemplates() []pointTemplate {
	dept0 := lubm.DepartmentIRI(0, 0)
	return []pointTemplate{
		{"q1", 1, dept0 + "/GraduateCourse0", d.gradCourses},
		{"q3", 3, dept0 + "/AssistantProfessor0", d.asstProfs},
		{"q4", 4, dept0, d.depts},
		{"q5", 5, dept0, d.depts},
		{"q7", 7, dept0 + "/AssociateProfessor0", d.assocProfs},
		{"q11", 11, lubm.UniversityIRI(0), d.univs},
		{"q12", 12, lubm.UniversityIRI(0), d.univs},
	}
}

// pointPool returns sz.poolTexts distinct select_point requests in rank
// order. Ranks go round-robin over the templates, so every rank band holds
// the same template mix on every seed and only the constants change; a
// template drops out once its pool is used up (there are only as many q11
// texts as universities).
func (d *dataset) pointPool(sz size, rng *rand.Rand) []request {
	tpls := d.pointTemplates()
	perms := make([][]int, len(tpls))
	for i, t := range tpls {
		perms[i] = rng.Perm(len(t.pool))
	}
	var out []request
	for round := 0; len(out) < sz.poolTexts; round++ {
		added := false
		for i, t := range tpls {
			if round >= len(perms[i]) || len(out) == sz.poolTexts {
				continue
			}
			text := strings.ReplaceAll(lubm.Query(t.n, sz.universities), "<"+t.old+">", "<"+t.pool[perms[i][round]]+">")
			out = append(out, request{class: t.class, text: text})
			added = true
		}
		if !added {
			break
		}
	}
	return out
}

// zipfCycle draws n request indexes over a pool of the given size, rank 0
// the most frequent.
func zipfCycle(rng *rand.Rand, pool, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// patchStream renders n /update bodies of 8 inserts and 2 deletes. Each
// patch adds one undergraduate and one graduate student wired so that the
// reader's q1, q2, q5, q9 and q14 all gain a row, and deletes two base
// takesCourse triples, which q9 and q1 lose rows to.
func (d *dataset) patchStream(rng *rand.Rand, n int) []string {
	typ := "<" + lubm.RDFTypeIRI + ">"
	line := func(sign byte, s, p, o string) string {
		return string(sign) + "<" + s + "> " + p + " <" + o + "> .\n"
	}
	prop := func(p string) string { return "<" + p + ">" }
	dept0, univ0 := lubm.DepartmentIRI(0, 0), lubm.UniversityIRI(0)
	dels := rng.Perm(len(d.takes))
	out := make([]string, n)
	for i := range out {
		ug := "http://bench/student/u" + strconv.Itoa(i)
		gr := "http://bench/student/g" + strconv.Itoa(i)
		tc := d.teaches[rng.Intn(len(d.teaches))]
		var b strings.Builder
		b.WriteString(line('+', ug, typ, lubm.ClassUndergraduateStudent))
		b.WriteString(line('+', ug, prop(lubm.PropMemberOf), dept0))
		b.WriteString(line('+', ug, prop(lubm.PropAdvisor), tc[0]))
		b.WriteString(line('+', ug, prop(lubm.PropTakesCourse), tc[1]))
		b.WriteString(line('+', gr, typ, lubm.ClassGraduateStudent))
		b.WriteString(line('+', gr, prop(lubm.PropMemberOf), dept0))
		b.WriteString(line('+', gr, prop(lubm.PropUndergraduateDegreeFrom), univ0))
		b.WriteString(line('+', gr, prop(lubm.PropTakesCourse), dept0+"/GraduateCourse0"))
		for k := 0; k < 2; k++ {
			t := d.takes[dels[(2*i+k)%len(dels)]]
			b.WriteString("-" + t.String() + "\n")
		}
		out[i] = b.String()
	}
	return out
}
