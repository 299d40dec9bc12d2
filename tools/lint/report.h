#ifndef S2RDF_TOOLS_LINT_REPORT_H_
#define S2RDF_TOOLS_LINT_REPORT_H_

#include <string>

#include "analyzer.h"
#include "lint.h"

// Text, JSON and SARIF reports of a whole-program analysis.

namespace s2rdf::lint {

std::string RenderText(const AnalysisResult& result);
std::string RenderJson(const AnalysisResult& result);
std::string RenderSarif(const AnalysisResult& result);

}  // namespace s2rdf::lint

#endif  // S2RDF_TOOLS_LINT_REPORT_H_
