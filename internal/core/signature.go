package core

// SignatureInputs returns the finding's stable identity fields, in a fixed
// order: kind, attack type, transient-window trigger class, scenario
// family, leak-site components (sorted, deduplicated, '+'-joined) and
// mechanism bug labels (likewise). These are exactly the fields that
// survive rediscovery of the same underlying bug — a different campaign
// seed, iteration number or stimulus finds the same leak through the same
// site with the same witnesses — and exclude everything that does not
// (Seed, Iteration). The scenario family is identity because two families
// sharing a legacy window class (e.g. branch-mispredict and the nested
// fault-in-branch shape) reach distinct leak mechanics. internal/triage
// folds the inputs, together with the target name, into a dedup signature.
func (f *Finding) SignatureInputs() []string {
	return []string{
		f.Kind.String(),
		f.AttackType,
		f.Window.String(),
		f.Scenario,
		joinSorted(f.Components),
		joinSorted(f.BugLabels),
	}
}

// joinSorted renders a component/label set as a canonical '+'-joined string.
// Pipelines already emit sorted, deduplicated slices; normalising again here
// keeps signatures stable for third-party targets that do not.
func joinSorted(in []string) string {
	s := dedup(in) // dedup copies, sorts and uniques
	out := ""
	for i, v := range s {
		if i > 0 {
			out += "+"
		}
		out += v
	}
	return out
}
