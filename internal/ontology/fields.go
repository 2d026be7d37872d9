package ontology

// RecordIdentifyingField is an object set selected per §4.5 as likely to
// occur exactly once per record, together with how its occurrences should be
// counted.
type RecordIdentifyingField struct {
	Set *ObjectSet
	// UseKeywords selects keyword occurrences as the indicator; otherwise
	// value-pattern matches are counted.
	UseKeywords bool
}

// MinRecordIdentifyingFields is the paper's lower bound: with fewer than
// three record-identifying fields the OM heuristic is not used.
const MinRecordIdentifyingFields = 3

// RecordIdentifyingFields selects the record-identifying fields of the
// ontology per §4.5:
//
//   - Candidates are object sets in one-to-one correspondence with the
//     entity, then those functionally dependent on it (many-valued sets
//     never identify records).
//   - Within each group, keyword-indicated fields come before
//     value-identified ones.
//   - Value-identified fields whose data-frame type is shared with another
//     field are excluded (two date-typed fields are indistinguishable by
//     value alone).
//   - At least 3 fields are required (else OM declines: ok == false); at
//     most max(3, 20% of the number of object sets) are used.
//
// The selection is made once per ontology, together with the discovery
// rule set (DiscoveryRuleSet), and shared by every caller, so a warm call
// allocates nothing. Callers must not mutate the returned slice.
func (o *Ontology) RecordIdentifyingFields() (fields []RecordIdentifyingField, ok bool) {
	o.compileDiscovery()
	return o.fields, o.fieldsOK
}

// selectRecordIdentifyingFields makes RecordIdentifyingFields' selection.
func (o *Ontology) selectRecordIdentifyingFields() ([]RecordIdentifyingField, bool) {
	typeCount := map[string]int{}
	for _, s := range o.ObjectSets {
		if s.Frame.Type != "" {
			typeCount[s.Frame.Type]++
		}
	}
	sharesType := func(s *ObjectSet) bool {
		return s.Frame.Type != "" && typeCount[s.Frame.Type] > 1
	}

	// Build the best-to-worst candidate order.
	var ordered []RecordIdentifyingField
	for _, card := range []Cardinality{OneToOne, Functional} {
		// Keyword-indicated first.
		for _, s := range o.ObjectSets {
			if s.Cardinality == card && s.HasKeywords() {
				ordered = append(ordered, RecordIdentifyingField{Set: s, UseKeywords: true})
			}
		}
		// Then value-identified, excluding shared-type values.
		for _, s := range o.ObjectSets {
			if s.Cardinality == card && !s.HasKeywords() && s.HasValues() && !sharesType(s) {
				ordered = append(ordered, RecordIdentifyingField{Set: s, UseKeywords: false})
			}
		}
	}

	if len(ordered) < MinRecordIdentifyingFields {
		return nil, false
	}
	limit := len(o.ObjectSets) / 5 // 20%
	if limit < MinRecordIdentifyingFields {
		limit = MinRecordIdentifyingFields
	}
	if len(ordered) > limit {
		ordered = ordered[:limit]
	}
	return ordered, true
}
