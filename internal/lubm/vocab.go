// Package lubm is a from-scratch, deterministic reimplementation of the
// LUBM (Lehigh University Benchmark) synthetic data generator and its query
// workload, standing in for the Java UBA 1.7 generator the paper used
// (§IV-A1). The ontology profile — entity classes, cardinality ranges, and
// link structure — follows the published UBA specification so the fourteen
// benchmark queries keep their selectivity character; the absolute RNG draws
// differ from the Java implementation, so absolute result cardinalities at a
// given scale differ from the paper's (they are deterministic per seed and
// locked for scale 1 by TestGoldenCardinalitiesScale1).
package lubm

// Namespace holds the univ-bench ontology namespace prefix used by every
// class and property IRI.
const Namespace = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"

// RDFTypeIRI is the rdf:type predicate.
const RDFTypeIRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Ontology classes (only the ones the benchmark data and queries use).
const (
	ClassUniversity           = Namespace + "University"
	ClassDepartment           = Namespace + "Department"
	ClassFullProfessor        = Namespace + "FullProfessor"
	ClassAssociateProfessor   = Namespace + "AssociateProfessor"
	ClassAssistantProfessor   = Namespace + "AssistantProfessor"
	ClassLecturer             = Namespace + "Lecturer"
	ClassUndergraduateStudent = Namespace + "UndergraduateStudent"
	ClassGraduateStudent      = Namespace + "GraduateStudent"
	ClassCourse               = Namespace + "Course"
	ClassGraduateCourse       = Namespace + "GraduateCourse"
	ClassResearchGroup        = Namespace + "ResearchGroup"
	ClassPublication          = Namespace + "Publication"
)

// Ontology properties.
const (
	PropWorksFor                = Namespace + "worksFor"
	PropMemberOf                = Namespace + "memberOf"
	PropSubOrganizationOf       = Namespace + "subOrganizationOf"
	PropUndergraduateDegreeFrom = Namespace + "undergraduateDegreeFrom"
	PropMastersDegreeFrom       = Namespace + "mastersDegreeFrom"
	PropDoctoralDegreeFrom      = Namespace + "doctoralDegreeFrom"
	PropTakesCourse             = Namespace + "takesCourse"
	PropTeacherOf               = Namespace + "teacherOf"
	PropAdvisor                 = Namespace + "advisor"
	PropPublicationAuthor       = Namespace + "publicationAuthor"
	PropHeadOf                  = Namespace + "headOf"
	PropName                    = Namespace + "name"
	PropEmailAddress            = Namespace + "emailAddress"
	PropTelephone               = Namespace + "telephone"
)

// UniversityIRI returns the IRI of university u, matching the UBA naming
// scheme the benchmark queries reference (e.g. <http://www.University0.edu>).
func UniversityIRI(u int) string {
	return "http://www." + "University" + itoa(u) + ".edu"
}

// DepartmentIRI returns the IRI of department d of university u.
func DepartmentIRI(u, d int) string {
	return "http://www.Department" + itoa(d) + ".University" + itoa(u) + ".edu"
}

// EntityIRI returns the IRI of a department-scoped entity such as
// FullProfessor3 or GraduateCourse0.
func EntityIRI(u, d int, kind string, i int) string {
	return DepartmentIRI(u, d) + "/" + kind + itoa(i)
}

// PublicationIRI returns the IRI of publication j authored by the given
// department-scoped author.
func PublicationIRI(authorIRI string, j int) string {
	return authorIRI + "/Publication" + itoa(j)
}

// itoa is a minimal non-negative integer formatter; the generator calls it
// in tight loops and fmt.Sprintf would dominate the profile.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
