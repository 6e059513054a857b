package relation

// OrderRelation and ReferenceNormalize are orderRelation and
// referenceNormalize, for the external test that saves through db
// (save_test.go).
var (
	OrderRelation      = orderRelation
	ReferenceNormalize = referenceNormalize
)
