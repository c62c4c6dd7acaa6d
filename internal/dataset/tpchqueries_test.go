package dataset

import (
	"math/rand"
	"testing"

	"ps3/internal/query"
)

func TestTPCHTemplatesCount(t *testing.T) {
	tpls := TPCHTemplates()
	// Appendix C.3 lists Q1,5,6,7,8,9,12,14,17,18,19 — eleven templates.
	if len(tpls) != 11 {
		t.Fatalf("%d templates, want 11 (paper Appendix A.1/C.3)", len(tpls))
	}
	seen := map[string]bool{}
	for _, tpl := range tpls {
		if tpl.Name == "" {
			t.Fatal("template with empty name")
		}
		if seen[tpl.Name] {
			t.Fatalf("duplicate template %q", tpl.Name)
		}
		seen[tpl.Name] = true
	}
}

func TestTPCHTemplatesCompileOnSchema(t *testing.T) {
	d, err := TPCHStar(Config{Rows: 2_000, Parts: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, tpl := range TPCHTemplates() {
		for trial := 0; trial < 5; trial++ {
			q := tpl.Instantiate(rng)
			if q == nil {
				t.Fatalf("%s: nil query", tpl.Name)
			}
			c, err := query.Compile(q, d.Table)
			if err != nil {
				t.Fatalf("%s: %v (query %v)", tpl.Name, err, q)
			}
			// Evaluating must not panic and must produce finite answers.
			total, _ := c.GroundTruth(d.Table)
			for g, vals := range c.FinalValues(total) {
				for _, v := range vals {
					if v != v { // NaN
						t.Fatalf("%s: NaN aggregate in group %q", tpl.Name, g)
					}
				}
			}
		}
	}
}

func TestTPCHTemplateInstantiationVaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tpl := range TPCHTemplates() {
		a := tpl.Instantiate(rng).String()
		varies := false
		for trial := 0; trial < 10; trial++ {
			if tpl.Instantiate(rng).String() != a {
				varies = true
				break
			}
		}
		if !varies {
			t.Errorf("%s: instantiation never varies; paper draws 20 random instances per template", tpl.Name)
		}
	}
}

func TestTPCHTemplatesMatchWorkloadScope(t *testing.T) {
	// Template group-by columnsets must be drawn from the TPCH* workload's
	// groupable columns (§5.5.4: "the set of aggregate functions and group by
	// columnsets are shared between the train and test set").
	d, err := TPCHStar(Config{Rows: 1_000, Parts: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	groupable := map[string]bool{}
	for _, c := range d.Workload.GroupableCols {
		groupable[c] = true
	}
	rng := rand.New(rand.NewSource(5))
	for _, tpl := range TPCHTemplates() {
		q := tpl.Instantiate(rng)
		for _, g := range q.GroupBy {
			if !groupable[g] {
				t.Errorf("%s groups by %q which is not in the training workload", tpl.Name, g)
			}
		}
	}
}

func TestTPCHTemplateQ1HasRareGroupStructure(t *testing.T) {
	// Q1 (returnflag/linestatus groups) is the paper's best case: a small
	// number of partitions should contain rare groups. Verify the groups are
	// few and skewed on the generated data.
	d, err := TPCHStar(Config{Rows: 10_000, Parts: 25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var q1 *TPCHTemplate
	for i := range TPCHTemplates() {
		tpls := TPCHTemplates()
		if tpls[i].Name == "Q1" {
			q1 = &tpls[i]
			break
		}
	}
	if q1 == nil {
		t.Fatal("Q1 template missing")
	}
	q := q1.Instantiate(rand.New(rand.NewSource(7)))
	c, err := query.Compile(q, d.Table)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := c.GroundTruth(d.Table)
	n := len(total.Groups)
	if n < 2 || n > 20 {
		t.Fatalf("Q1 produced %d groups; want a small grouped answer", n)
	}
}
