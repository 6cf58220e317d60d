#include "app/news_service.h"

#include <algorithm>

#include "metadata/predicate.h"

namespace pdht::app {

NewsService::NewsService(const NewsServiceOptions& options)
    : corpus_(options.num_articles, options.keys_per_article,
              options.corpus_seed),
      generator_(options.keys_per_article) {
  // Build the dense key space from the corpus's predicate hashes.
  for (const auto& article : corpus_.articles()) {
    for (const auto& key : generator_.KeysFor(article)) {
      auto [it, inserted] =
          hash_to_dense_.try_emplace(key.hash, dense_to_articles_.size());
      if (inserted) {
        dense_to_articles_.emplace_back();
        dense_to_predicate_.push_back(key.predicate);
      }
      auto& holders = dense_to_articles_[it->second];
      if (std::find(holders.begin(), holders.end(), article.id) ==
          holders.end()) {
        holders.push_back(article.id);
      }
    }
  }
  core::SystemConfig config = options.system;
  config.params.keys = dense_to_articles_.size();
  system_ = std::make_unique<core::PdhtSystem>(config);
}

void NewsService::Run(uint64_t rounds) { system_->RunRounds(rounds); }

uint64_t NewsService::DenseKeyOf(const std::string& predicate) const {
  auto it = hash_to_dense_.find(
      metadata::KeyGenerator::HashPredicate(predicate));
  return it == hash_to_dense_.end() ? kUnknownKey : it->second;
}

SearchResult NewsService::Search(const std::string& predicate) {
  SearchResult result;
  // Canonicalize first so term order and spacing don't matter; fall back
  // to the raw string when the input doesn't parse (it will simply miss).
  std::string normalized = metadata::NormalizePredicate(predicate);
  result.predicate = normalized.empty() ? predicate : normalized;
  uint64_t dense = DenseKeyOf(result.predicate);
  if (dense == kUnknownKey) {
    // The predicate matches nothing in the network.  A peer cannot know
    // that in advance, so it still pays for a (failing) search; charge a
    // broadcast search like the paper's unanswerable-query path.
    core::QueryOutcome out = system_->ExecuteQuery(
        // Query an arbitrary existing key id but force the cost of the
        // miss path by querying the least popular key -- approximation:
        // application-level unknown predicates are rare and their exact
        // cost model is out of the paper's scope.
        system_->workload().KeyAtRank(system_->workload().num_keys()));
    result.messages = out.index_messages + out.unstructured_messages;
    result.found = false;
    return result;
  }
  core::QueryOutcome out = system_->ExecuteQuery(dense);
  result.found = out.found;
  result.answered_from_index = out.answered_from_index;
  result.messages = out.index_messages + out.unstructured_messages;
  if (out.found) result.article_ids = dense_to_articles_[dense];
  return result;
}

SearchResult NewsService::SearchConjunction(const metadata::MetadataPair& a,
                                            const metadata::MetadataPair& b) {
  return Search(metadata::KeyGenerator::ConjunctivePredicate(a, b));
}

std::vector<std::string> NewsService::PredicatesOf(
    uint64_t article_id) const {
  std::vector<std::string> out;
  if (article_id >= corpus_.size()) return out;
  for (const auto& key : generator_.KeysFor(corpus_.at(article_id))) {
    out.push_back(key.predicate);
  }
  return out;
}

}  // namespace pdht::app
