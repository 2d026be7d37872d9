// Package ontology implements the application-ontology substrate the paper's
// extraction process depends on (Section 2 and Figure 1): a small conceptual
// model — object sets related to an entity of interest with cardinality
// constraints — augmented with data frames (regular expressions describing
// constants and keywords) and lexicons.
//
// An ontology is authored in a compact line-oriented DSL (see Parse), and
// from it the package derives the three artifacts of Figure 1:
//
//   - the database description (Scheme),
//   - the constant/keyword matching rules (Rules),
//   - the record-identifying fields used by the OM heuristic (§4.5)
//     (RecordIdentifyingFields).
package ontology

import (
	"fmt"
	"regexp"
	"sync"
)

// Cardinality describes how an object set relates to the entity of interest.
type Cardinality int

// Cardinality values, ordered from strongest to weakest for the purposes of
// §4.5's "best to worst" record-identifying-field ordering.
const (
	// OneToOne: each entity instance has exactly one value (a death date in
	// an obituary).
	OneToOne Cardinality = iota
	// Functional: each entity instance has at most one value (an age).
	Functional
	// Many: an entity instance may have any number of values (surviving
	// relatives).
	Many
)

// String returns the DSL spelling of the cardinality.
func (c Cardinality) String() string {
	switch c {
	case OneToOne:
		return "one-to-one"
	case Functional:
		return "functional"
	case Many:
		return "many"
	default:
		return fmt.Sprintf("Cardinality(%d)", int(c))
	}
}

// DataFrame carries the textual appearance knowledge for an object set: how
// its constant values look and which context keywords indicate its presence.
type DataFrame struct {
	// Type names the value domain (e.g. "date", "name", "price"). Fields
	// sharing a Type are ambiguous as value-identified record-identifying
	// fields (§4.5) — a birth date matches the same patterns as a death
	// date.
	Type string
	// ValuePatterns match constant values of the object set.
	ValuePatterns []*regexp.Regexp
	// KeywordPatterns match context keywords indicating the field's
	// presence ("died on", "asking price").
	KeywordPatterns []*regexp.Regexp
}

// ObjectSet is one object set of the conceptual model, annotated with its
// cardinality relative to the entity of interest and its data frame.
type ObjectSet struct {
	Name        string
	Cardinality Cardinality
	Frame       DataFrame
}

// HasKeywords reports whether the object set has keyword indicators.
func (o *ObjectSet) HasKeywords() bool { return len(o.Frame.KeywordPatterns) > 0 }

// HasValues reports whether the object set has value patterns.
func (o *ObjectSet) HasValues() bool { return len(o.Frame.ValuePatterns) > 0 }

// Relationship is an explicit relationship set between two object sets (or
// the entity and an object set), kept for scheme generation and
// documentation; the cardinality annotations on object sets are what the
// heuristics consume.
type Relationship struct {
	Name     string
	From, To string
	// FromCard and ToCard are free-form cardinality annotations such as
	// "1" or "0:*", preserved from the DSL.
	FromCard, ToCard string
}

// Ontology is a parsed application ontology.
type Ontology struct {
	// Name identifies the application (e.g. "Obituary").
	Name string
	// Entity is the entity of interest each record describes.
	Entity string
	// ObjectSets in declaration order.
	ObjectSets []*ObjectSet
	// Relationships in declaration order (possibly empty; implicit
	// entity↔object-set relationships are assumed).
	Relationships []Relationship
	// Lexicons maps lexicon name → member words, usable in patterns via
	// {Name} interpolation.
	Lexicons map[string][]string

	// rulesOnce guards the lazily-built, shared full rule set (RuleSet).
	rulesOnce sync.Once
	rules     *RuleSet
	// discoveryOnce guards the record-identifying fields and the
	// discovery rule set compiled from them (DiscoveryRuleSet).
	discoveryOnce sync.Once
	fields        []RecordIdentifyingField
	fieldsOK      bool
	discovery     *RuleSet
}

// ObjectSet returns the named object set, or nil.
func (o *Ontology) ObjectSet(name string) *ObjectSet {
	for _, s := range o.ObjectSets {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Validate checks structural invariants: a name, an entity, at least one
// object set, every object set non-empty and uniquely named, and every
// relationship endpoint resolvable.
func (o *Ontology) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("ontology: missing name")
	}
	if o.Entity == "" {
		return fmt.Errorf("ontology %s: missing entity", o.Name)
	}
	if len(o.ObjectSets) == 0 {
		return fmt.Errorf("ontology %s: no object sets", o.Name)
	}
	seen := map[string]bool{}
	for _, s := range o.ObjectSets {
		if s.Name == "" {
			return fmt.Errorf("ontology %s: unnamed object set", o.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("ontology %s: duplicate object set %q", o.Name, s.Name)
		}
		seen[s.Name] = true
		if !s.HasKeywords() && !s.HasValues() {
			return fmt.Errorf("ontology %s: object set %q has neither keywords nor value patterns", o.Name, s.Name)
		}
	}
	for _, r := range o.Relationships {
		for _, end := range []string{r.From, r.To} {
			if end != o.Entity && !seen[end] {
				return fmt.Errorf("ontology %s: relationship %q references unknown set %q", o.Name, r.Name, end)
			}
		}
	}
	return nil
}
