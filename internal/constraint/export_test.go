package constraint

// InsertCanon is insert, for the external property test (insert_test.go).
func InsertCanon(j Conjunction, c Constraint) Conjunction { return j.insert(c) }
