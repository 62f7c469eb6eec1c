// composim example: the enterprise management plane (§II-B, §II-D).
//
// Walks the MCS multi-tenant story: an administrator provisions users,
// tenants claim and compose their own resources, isolation blocks
// cross-tenant interference, and the allocation round-trips through the
// JSON configuration export/import the appliance offers. Ends with the
// BMC's view: resource list, link health, temperatures.
//
//   $ ./examples/management_console
#include <cstdio>

#include "core/composable_system.hpp"
#include "falcon/json.hpp"
#include "telemetry/report.hpp"

using namespace composim;

namespace {

void show(const char* what, const falcon::OpResult& r) {
  std::printf("  %-46s -> %s%s%s\n", what, r.ok ? "OK" : "DENIED",
              r.ok ? "" : ": ", r.ok ? "" : r.detail.c_str());
}

}  // namespace

int main() {
  core::ComposableSystem sys(core::SystemConfig::LocalGpus);
  auto& mcs = sys.mcs();
  auto& chassis = sys.chassis();
  auto& bmc = sys.bmc();

  std::printf("== Accounts ==\n");
  show("admin creates user 'kaoutar'", mcs.addUser("kaoutar", falcon::Role::User));
  show("admin creates user 'lorraine'", mcs.addUser("lorraine", falcon::Role::User));

  std::printf("\n== Self-service composition ==\n");
  show("kaoutar claims drawer0/slot0 (GPU)", mcs.claimResource("kaoutar", {0, 0}));
  show("kaoutar claims drawer0/slot1 (GPU)", mcs.claimResource("kaoutar", {0, 1}));
  show("lorraine claims drawer1/slot0 (GPU)", mcs.claimResource("lorraine", {1, 0}));
  show("kaoutar attaches her GPUs to port H1", mcs.attach("kaoutar", {0, 0}, 0));
  show("  ... and the second one", mcs.attach("kaoutar", {0, 1}, 0));
  show("lorraine attaches hers to port H3", mcs.attach("lorraine", {1, 0}, 2));

  std::printf("\n== Isolation (the 'enterprise ready' part) ==\n");
  show("lorraine tries to detach kaoutar's GPU", mcs.detach("lorraine", {0, 0}));
  show("lorraine tries to claim an owned slot",
       mcs.claimResource("lorraine", {0, 1}));
  show("lorraine tries to change the drawer mode",
       mcs.setDrawerMode("lorraine", 0, falcon::DrawerMode::Advanced));
  std::vector<falcon::BmcEvent> events;
  show("lorraine tries to export the event log",
       mcs.exportEventLog("lorraine", bmc, events));
  show("admin exports the event log", mcs.exportEventLog("admin", bmc, events));

  std::printf("\n== Configuration export / import ==\n");
  const falcon::Json config = mcs.exportConfig();
  std::printf("%s\n", config.dump(2).c_str());
  // Tear the composition down, then restore it from the file.
  mcs.detach("kaoutar", {0, 0});
  mcs.detach("kaoutar", {0, 1});
  mcs.detach("lorraine", {1, 0});
  show("admin re-imports the saved configuration",
       mcs.importConfig("admin", falcon::Json::parse(config.dump())));

  std::printf("\n== BMC / GUI views ==\n");
  std::printf("Resource list:\n");
  telemetry::Table t({"Slot", "Type", "Device", "Link", "Host"});
  for (const auto& row : chassis.resourceList()) {
    t.addRow({std::string("d").append(std::to_string(row.slot.drawer)) + "s" +
                  std::to_string(row.slot.index),
              falcon::toString(row.type), row.device_name, row.link_speed,
              row.host_name.empty() ? "-" : row.host_name});
  }
  std::printf("%s", t.render().c_str());

  const auto temps = bmc.readTemperatures();
  std::printf("\nTemperatures: drawer0 %.1fC, drawer1 %.1fC, fans %.0f rpm\n",
              temps.drawer_celsius[0], temps.drawer_celsius[1], temps.fan_rpm);
  std::printf("Audit log entries: %zu (every decision recorded)\n",
              mcs.auditLog().size());
  return 0;
}
