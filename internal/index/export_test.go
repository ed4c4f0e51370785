package index

// ListCoDF is CoDF without the memo, for the external tests that need a
// generated corpus (datagen imports this package).
var ListCoDF = (*Index).listCoDF
