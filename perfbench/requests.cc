#include "requests.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "rdf/vocabulary.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads/lubm_generator.h"

namespace perfbench {
namespace {

using sedge::Rng;
using sedge::rdf::Graph;

const char kPrefix[] =
    "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

std::string Ub(const std::string& local) {
  return sedge::workloads::kLubmNs + local;
}

std::string Iri(const std::string& iri) { return "<" + iri + ">"; }

// Instances of the graph by role, each sorted so the seeded shuffles below
// depend on the graph's content only.
struct Pools {
  std::vector<std::string> undergrads, grads, faculty, courses, pubs, depts,
      univs, groups;
};

Pools ExtractPools(const Graph& graph) {
  std::map<std::string, std::set<std::string>> by_class;
  std::set<std::string> univs;
  for (const auto& t : graph.triples()) {
    if (!t.predicate.is_iri() || !t.object.is_iri()) continue;
    const std::string& p = t.predicate.lexical();
    if (p == sedge::rdf::kRdfType) {
      by_class[t.object.lexical()].insert(t.subject.lexical());
    } else if (p == Ub("undergraduateDegreeFrom") ||
               p == Ub("mastersDegreeFrom") ||
               p == Ub("doctoralDegreeFrom")) {
      univs.insert(t.object.lexical());
    }
  }
  const auto take = [&by_class](std::initializer_list<const char*> classes) {
    std::set<std::string> merged;
    for (const char* c : classes) {
      const auto& s = by_class[Ub(c)];
      merged.insert(s.begin(), s.end());
    }
    return std::vector<std::string>(merged.begin(), merged.end());
  };
  Pools pools;
  pools.undergrads = take({"UndergraduateStudent"});
  pools.grads = take({"GraduateStudent"});
  pools.faculty = take({"FullProfessor", "AssociateProfessor",
                        "AssistantProfessor", "Lecturer"});
  pools.courses = take({"Course", "GraduateCourse"});
  pools.pubs = take({"Publication"});
  pools.depts = take({"Department"});
  pools.groups = take({"ResearchGroup"});
  pools.univs.assign(univs.begin(), univs.end());
  return pools;
}

// Every (class, instance) pair, for the templates whose instance pools
// are too small on their own (departments, universities).
std::vector<std::string> Cross(const std::vector<std::string>& classes,
                               const std::vector<std::string>& instances) {
  std::vector<std::string> out;
  for (const std::string& c : classes) {
    for (const std::string& i : instances) out.push_back(c + "|" + i);
  }
  return out;
}

std::pair<std::string, std::string> Split(const std::string& combo) {
  const size_t bar = combo.find('|');
  return {combo.substr(0, bar), combo.substr(bar + 1)};
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

struct Template {
  std::string name;
  // Requests per thousand of the cold-read sequence. Heavy templates
  // (tens to hundreds of ms each) get small shares, so no single query
  // class dominates the sequence's work.
  int weight;
  // Constants the template rotates over (one per request).
  std::vector<std::string> pool;
  std::function<std::string(const std::string&)> render;
};

std::vector<Template> Templates(const Pools& p) {
  const std::vector<std::string> person_classes = {
      "Person",    "Student",  "GraduateStudent", "UndergraduateStudent",
      "Employee",  "Faculty",  "Professor",       "FullProfessor",
      "AssociateProfessor", "AssistantProfessor", "Lecturer"};
  const std::vector<std::string> faculty_classes = {
      "Faculty", "Professor", "FullProfessor", "AssociateProfessor",
      "AssistantProfessor", "Lecturer"};
  const std::vector<std::string> student_classes = {
      "Student", "GraduateStudent", "UndergraduateStudent"};
  std::vector<std::string> students = p.undergrads;
  students.insert(students.end(), p.grads.begin(), p.grads.end());

  std::vector<Template> t;
  t.push_back({"sp_takes", 185, students, [](const std::string& s) {
                 return "SELECT ?C WHERE { " + Iri(s) +
                        " lubm:takesCourse ?C }";
               }});
  t.push_back({"sp_authors", 130, p.pubs, [](const std::string& pub) {
                 return "SELECT ?A WHERE { " + Iri(pub) +
                        " lubm:publicationAuthor ?A }";
               }});
  t.push_back({"student_profile", 185, students, [](const std::string& s) {
                 return "SELECT ?N ?E ?D WHERE { " + Iri(s) +
                        " lubm:name ?N . " + Iri(s) +
                        " lubm:emailAddress ?E . " + Iri(s) +
                        " lubm:memberOf ?D }";
               }});
  t.push_back({"advisor_star", 15, p.grads, [](const std::string& s) {
                 return "SELECT ?A ?N ?E WHERE { " + Iri(s) +
                        " lubm:advisor ?A . ?A lubm:name ?N . "
                        "?A lubm:emailAddress ?E }";
               }});
  t.push_back({"course_teacher", 130, p.courses, [](const std::string& c) {
                 return "SELECT ?P ?N WHERE { ?P lubm:teacherOf " + Iri(c) +
                        " . ?P lubm:name ?N }";
               }});
  t.push_back({"group_chain", 80, p.groups, [](const std::string& g) {
                 return "SELECT ?D ?U WHERE { " + Iri(g) +
                        " lubm:subOrganizationOf ?D . "
                        "?D lubm:subOrganizationOf ?U }";
               }});
  t.push_back({"author_pubs", 20, p.faculty, [](const std::string& f) {
                 return "SELECT ?X WHERE { ?X rdf:type lubm:Publication . "
                        "?X lubm:publicationAuthor " +
                        Iri(f) + " }";
               }});
  t.push_back({"coauthor_orgs", 15, p.pubs, [](const std::string& pub) {
                 return "SELECT ?P ?D WHERE { " + Iri(pub) +
                        " lubm:publicationAuthor ?P . ?P lubm:memberOf ?D }";
               }});
  t.push_back({"course_students", 15, p.courses, [](const std::string& c) {
                 return "SELECT ?X WHERE { ?X rdf:type lubm:Student . "
                        "?X lubm:takesCourse " +
                        Iri(c) + " }";
               }});
  t.push_back({"advisee_courses", 100, p.faculty, [](const std::string& f) {
                 return "SELECT ?X ?Z WHERE { ?X lubm:advisor " + Iri(f) +
                        " . ?X lubm:takesCourse ?Z . " + Iri(f) +
                        " lubm:teacherOf ?Z }";
               }});
  t.push_back({"dept_members", 25, Cross(person_classes, p.depts),
               [](const std::string& combo) {
                 const auto [cls, dept] = Split(combo);
                 return "SELECT ?X WHERE { ?X rdf:type lubm:" + cls +
                        " . ?X lubm:memberOf " + Iri(dept) + " }";
               }});
  t.push_back({"dept_faculty_star", 60, Cross(faculty_classes, p.depts),
               [](const std::string& combo) {
                 const auto [cls, dept] = Split(combo);
                 return "SELECT ?X ?N ?E ?T WHERE { ?X rdf:type lubm:" + cls +
                        " . ?X lubm:worksFor " + Iri(dept) +
                        " . ?X lubm:name ?N . ?X lubm:emailAddress ?E . "
                        "?X lubm:telephone ?T }";
               }});
  t.push_back({"dept_student_mail", 8, Cross(student_classes, p.depts),
               [](const std::string& combo) {
                 const auto [cls, dept] = Split(combo);
                 return "SELECT ?X ?Z WHERE { ?X rdf:type lubm:" + cls +
                        " . ?X lubm:memberOf " + Iri(dept) +
                        " . ?X lubm:emailAddress ?Z }";
               }});
  t.push_back({"alumni", 30, Cross(person_classes, p.univs),
               [](const std::string& combo) {
                 const auto [cls, univ] = Split(combo);
                 return "SELECT ?X WHERE { ?X rdf:type lubm:" + cls +
                        " . ?X lubm:degreeFrom " + Iri(univ) + " }";
               }});
  t.push_back({"teacher_course_students", 2, p.faculty,
               [](const std::string& f) {
                 return "SELECT ?X ?Y WHERE { ?X rdf:type lubm:Student . "
                        "?Y rdf:type lubm:Course . ?X lubm:takesCourse ?Y . " +
                        Iri(f) + " lubm:teacherOf ?Y }";
               }});
  return t;
}

// `n` requests over the templates selected by `weight_of` (weight 0 drops a
// template): exact per-template counts by largest remainder, constants
// drawn without replacement from each seeded pool shuffle, then the whole
// sequence shuffled with the seed.
std::vector<std::string> BuildSequence(
    const Graph& graph, uint64_t seed, size_t n,
    const std::function<int(const Template&)>& weight_of) {
  std::vector<Template> templates = Templates(ExtractPools(graph));
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  int total = 0;
  for (const Template& t : templates) total += weight_of(t);
  SEDGE_CHECK(total > 0);

  std::vector<size_t> counts(templates.size(), 0);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < templates.size(); ++i) {
    const double exact = static_cast<double>(n) * weight_of(templates[i]) /
                         static_cast<double>(total);
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - static_cast<double>(counts[i]), i});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t k = 0; assigned < n && k < remainders.size(); ++k, ++assigned) {
    ++counts[remainders[k].second];
  }

  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < templates.size(); ++i) {
    Template& t = templates[i];
    SEDGE_CHECK(counts[i] <= t.pool.size())
        << t.name << ": " << counts[i] << " requests but only "
        << t.pool.size() << " distinct constants";
    Shuffle(&t.pool, &rng);
    for (size_t k = 0; k < counts[i]; ++k) {
      out.push_back(kPrefix + t.render(t.pool[k]));
    }
  }
  Shuffle(&out, &rng);
  return out;
}

}  // namespace

std::vector<std::string> ColdReadSequence(const Graph& graph, uint64_t seed,
                                          size_t n) {
  return BuildSequence(graph, seed, n,
                       [](const Template& t) { return t.weight; });
}

std::vector<std::string> SensorReadCatalog(const Graph& graph, uint64_t seed,
                                           size_t n) {
  const std::set<std::string> light = {"sp_takes", "student_profile",
                                       "advisor_star", "course_teacher",
                                       "group_chain", "sp_authors",
                                       "coauthor_orgs"};
  return BuildSequence(graph, seed + 1, n, [&light](const Template& t) {
    return light.count(t.name) > 0 ? 1 : 0;
  });
}

}  // namespace perfbench
