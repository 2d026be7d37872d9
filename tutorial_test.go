package repro_test

// This file executes docs/TUTORIAL.md: the real-estate ontology and page
// below are the tutorial's, verbatim in substance, and every claim the
// tutorial makes is asserted here so the document cannot drift from the
// code.

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reldb"
	"repro/internal/template"
)

const realEstateDSL = `
ontology RealEstate
entity Listing

lexicon Suffix { Street Avenue Drive Lane Road Court Circle }

object Price : one-to-one {
    type price
    keyword ` + "`[Aa]sking|[Pp]riced at|[Oo]ffered at`" + `
    value ` + "`\\$[0-9][0-9,]*`" + `
}
object Bedrooms : one-to-one {
    type rooms
    keyword ` + "`[0-9] (?:bdrm|bedroom|BR)`" + `
}
object Phone : one-to-one {
    type phone
    value ` + "`\\(?[0-9]{3}\\)?[ -][0-9]{3}-[0-9]{4}`" + `
}
object Address : one-to-one {
    type address
    value ` + "`[0-9]{2,5} [A-Z][a-z]+ {Suffix}`" + `
}
object SquareFeet : functional {
    type area
    keyword ` + "`[0-9,]+ sq\\.? ?ft`" + `
}
object Feature : many {
    type feature
    keyword ` + "`garage|fireplace|fenced yard|new roof|hardwood floors`" + `
}

relationship Costs : Listing [1] Price [1]
relationship LocatedAt : Listing [1] Address [1]
`

// Note the two bold runs per listing: a tag that appears exactly once per
// record is statistically indistinguishable from the separator (its count
// matches OM's estimate and RP's boundary-pair count matches its own), so
// a page whose only markup is one bold address per record genuinely has
// two correct separators. Real listings pages, like Figure 2, bold more.
const listingsPage = `<html><head><title>Homes For Sale</title></head>
<body>
<h1>Homes For Sale - October 1998</h1>
<div>
<hr>
<b>412 Maple Street</b> Charming 3 bdrm rambler, 1,450 sq. ft., fireplace
and fenced yard. Offered at $128,500. Call Nancy (801) 555-8714.
<b>OPEN HOUSE SATURDAY</b>.
<hr>
<b>77 Cedar Lane</b> Spacious 4 bedroom two-story, 2,200 sq ft, garage,
hardwood floors. Asking $189,900. Call (801) 555-2203 evenings.
<b>REDUCED</b>.
<hr>
<b>1508 Willow Court</b> Cozy 2 BR starter with new roof. Priced at
$94,000. Call Ted (435) 555-9917. <b>MUST SEE</b>.
<hr>
<b>23 Aspen Circle</b> Updated 3 bedroom with fireplace, 1,800 sq ft.
Asking $142,000. Call Rosa (801) 555-6641. <b>BY OWNER</b>.
<hr>
</div>
</body></html>`

func tutorialOntology(t *testing.T) *repro.Ontology {
	t.Helper()
	ont, err := repro.ParseOntology(realEstateDSL)
	if err != nil {
		t.Fatal(err)
	}
	return ont
}

func TestTutorialOntologyFieldSelection(t *testing.T) {
	ont := tutorialOntology(t)
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		t.Fatal("tutorial ontology must yield record-identifying fields")
	}
	// ≥3 one-to-one fields: keywords first (Price, Bedrooms), then unique-
	// typed values (Phone, Address); the 20% rule caps at 3 for 6 sets.
	var names []string
	for _, f := range fields {
		names = append(names, f.Set.Name)
	}
	if got := strings.Join(names, " "); got != "Price Bedrooms Phone" {
		t.Errorf("fields = %q, want %q", got, "Price Bedrooms Phone")
	}
}

func TestTutorialDiscovery(t *testing.T) {
	ont := tutorialOntology(t)
	res, err := repro.DiscoverWithOntology(listingsPage, ont)
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "hr" {
		t.Fatalf("separator = %s, want hr\n%s", res.Separator, repro.Explain(res))
	}
	if _, ok := res.Rankings["OM"]; !ok {
		t.Error("OM should vote with the tutorial ontology")
	}
}

func TestTutorialClassification(t *testing.T) {
	cls, err := repro.Classify(listingsPage, tutorialOntology(t))
	if err != nil {
		t.Fatal(err)
	}
	if cls.Kind != repro.MultipleRecords {
		t.Errorf("kind = %v (estimate %.2f), want multiple-records", cls.Kind, cls.Estimate)
	}
}

func TestTutorialExtraction(t *testing.T) {
	ont := tutorialOntology(t)
	db, err := repro.Extract(listingsPage, ont)
	if err != nil {
		t.Fatal(err)
	}
	rows := db.Table("Listing").Select(nil)
	if len(rows) != 4 {
		t.Fatalf("listings = %d, want 4", len(rows))
	}
	wantPrices := []string{"$128,500", "$189,900", "$94,000", "$142,000"}
	wantAddrs := []string{"412 Maple Street", "77 Cedar Lane", "1508 Willow Court", "23 Aspen Circle"}
	for i, row := range rows {
		if got := row.Get("Price").Str; got != wantPrices[i] {
			t.Errorf("listing %d price = %q, want %q", i+1, got, wantPrices[i])
		}
		if got := row.Get("Address").Str; got != wantAddrs[i] {
			t.Errorf("listing %d address = %q, want %q", i+1, got, wantAddrs[i])
		}
	}
	// The many-valued features table.
	features := db.Table("Listing_Feature")
	if features == nil || features.Len() < 4 {
		t.Errorf("features table = %v", features)
	}

	// The tutorial's query: listings under $200,000 ordered by price.
	cheap := db.Table("Listing").Query().
		WhereNotNull("Price").
		Where("Price", reldb.Lt, "$200,000").
		OrderBy("Price").
		Rows()
	if len(cheap) != 4 || cheap[0].Get("Price").Str != "$94,000" {
		t.Errorf("query result wrong: %d rows, first %v", len(cheap), cheap[0].Get("Price"))
	}
}

func TestTutorialWrapper(t *testing.T) {
	ont := tutorialOntology(t)
	store, err := template.Open(template.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// The salt binds stored wrappers to the request options, exactly as
	// cmd/serve and cmd/bulk key their -wrapper-store.
	opts := core.Options{
		Ontology:     ont,
		Templates:    store,
		TemplateSalt: template.Salt("html", realEstateDSL, nil),
	}
	// The first page of a template is learned; the second is answered from
	// the store without running the heuristics.
	for pass := 0; pass < 2; pass++ {
		res, err := core.Discover(listingsPage, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Separator != "hr" {
			t.Errorf("pass %d: separator = %s", pass, res.Separator)
		}
		if recs := core.Split(listingsPage, res); len(recs) != 4 {
			t.Errorf("pass %d: %d records, want 4", pass, len(recs))
		}
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("store stats = %+v, want one miss then one hit", st)
	}
}
