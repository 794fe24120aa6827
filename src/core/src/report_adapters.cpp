#include "axnn/core/report_adapters.hpp"

namespace axnn::core {

using obs::Json;

Json to_json(const train::EpochStat& st) {
  Json j = Json::object();
  j["epoch"] = st.epoch;
  j["train_loss"] = st.train_loss;
  j["test_acc"] = st.test_acc;
  j["seconds"] = st.seconds;
  return j;
}

namespace {
Json history_to_json(const std::vector<train::EpochStat>& history) {
  Json arr = Json::array();
  for (const auto& st : history) arr.push_back(to_json(st));
  return arr;
}
}  // namespace

Json to_json(const train::TrainResult& r) {
  Json j = Json::object();
  j["final_acc"] = r.final_acc;
  j["seconds"] = r.seconds;
  j["history"] = history_to_json(r.history);
  j["health"] = to_json(r.health);
  return j;
}

Json to_json(const train::FineTuneResult& r) {
  Json j = Json::object();
  j["initial_acc"] = r.initial_acc;
  j["final_acc"] = r.final_acc;
  j["best_acc"] = r.best_acc;
  j["seconds"] = r.seconds;
  j["history"] = history_to_json(r.history);
  j["health"] = to_json(r.health);
  return j;
}

Json to_json(const resilience::DivergenceEvent& ev) {
  Json j = Json::object();
  j["epoch"] = ev.epoch;
  j["batch"] = ev.batch;
  j["cause"] = ev.cause;
  j["loss"] = ev.loss;
  j["grad_norm"] = ev.grad_norm;
  j["lr_before"] = static_cast<double>(ev.lr_before);
  j["lr_after"] = static_cast<double>(ev.lr_after);
  return j;
}

Json to_json(const resilience::DivergenceReport& rep) {
  Json j = Json::object();
  j["rollbacks"] = rep.rollbacks;
  j["gave_up"] = rep.gave_up;
  Json evs = Json::array();
  for (const auto& ev : rep.events) evs.push_back(to_json(ev));
  j["events"] = std::move(evs);
  return j;
}

Json to_json(const energy::EnergyEstimate& e) {
  Json j = Json::object();
  j["macs"] = e.macs;
  j["exact_energy"] = e.exact_energy;
  j["approx_energy"] = e.approx_energy;
  j["savings_pct"] = e.savings_pct;
  return j;
}

Json to_json(const ge::ErrorFit& fit) {
  Json j = Json::object();
  j["a"] = fit.a;
  j["b"] = fit.b;
  j["k"] = fit.k;
  j["c"] = fit.c;
  j["constant"] = fit.is_constant();
  return j;
}

Json to_json(const sentinel::LeafStats& st) {
  Json j = Json::object();
  j["path"] = st.path;
  j["gemm_checks"] = st.gemm_checks;
  j["range_checks"] = st.range_checks;
  j["abft_violations"] = st.abft_violations;
  j["range_violations"] = st.range_violations;
  j["reexecs"] = st.reexecs;
  j["degraded"] = st.degraded;
  return j;
}

Json to_json(const sentinel::SentinelReport& rep) {
  Json j = Json::object();
  j["total_checks"] = rep.total_checks();
  j["total_violations"] = rep.total_violations();
  j["total_reexecs"] = rep.total_reexecs();
  j["degraded_leaves"] = rep.degraded_leaves();
  j["violation_rate"] = rep.violation_rate();
  j["summary"] = rep.summary();
  Json leaves = Json::array();
  for (const auto& l : rep.leaves) leaves.push_back(to_json(l));
  j["leaves"] = std::move(leaves);
  return j;
}

Json to_json(const BenchProfile& p) {
  Json j = Json::object();
  j["full"] = p.full;
  j["image_size"] = p.image_size;
  j["train_size"] = p.train_size;
  j["test_size"] = p.test_size;
  j["resnet_width"] = static_cast<double>(p.resnet_width);
  j["mobilenet_width"] = static_cast<double>(p.mobilenet_width);
  j["fp_epochs"] = p.fp_epochs;
  j["ft_epochs"] = p.ft_epochs;
  j["ft_batch"] = p.ft_batch;
  j["quant_epochs"] = p.quant_epochs;
  j["ablation_epochs"] = p.ablation_epochs;
  j["decay_every"] = p.decay_every;
  j["threads"] = p.threads;
  return j;
}

Json to_json(const Table& t) {
  Json j = Json::object();
  Json headers = Json::array();
  for (const auto& h : t.headers()) headers.push_back(Json(h));
  j["headers"] = std::move(headers);
  Json rows = Json::array();
  for (const auto& row : t.rows()) {
    Json r = Json::array();
    for (const auto& cell : row) r.push_back(Json(cell));
    rows.push_back(std::move(r));
  }
  j["rows"] = std::move(rows);
  return j;
}

Json to_json(const Workbench::ApproxRun& run) {
  Json j = Json::object();
  j["multiplier"] = run.multiplier;
  j["method"] = train::to_string(run.method);
  j["t2"] = static_cast<double>(run.t2);
  j["initial_acc"] = run.initial_acc;
  j["fit"] = to_json(run.fit);
  j["plan_fits"] = static_cast<int64_t>(run.plan_fits);
  j["result"] = to_json(run.result);
  return j;
}

}  // namespace axnn::core
