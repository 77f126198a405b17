#include "gridbox/wsrf_gridbox.hpp"

#include <set>

#include "wsn/subscription_manager.hpp"
#include "wsrf/base_faults.hpp"

namespace gs::gridbox {

namespace {

// ---------------------------------------------------------------------------
// Outcall proxies shared by the services below (the "pair of calls" the
// paper measures all route through the central AccountService).
// ---------------------------------------------------------------------------

bool remote_account_exists(net::SoapCaller& caller, const std::string& address,
                           const container::ProxySecurity& security,
                           const std::string& dn) {
  class Proxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    bool exists(const std::string& dn) {
      auto req = std::make_unique<xml::Element>(gb("AccountExists"));
      req->append_element(gb("DN")).set_text(dn);
      const soap::Envelope r = invoke(wsrf_actions::kAccountExists, std::move(req));
      const xml::Element* p = r.payload();
      const xml::Element* e = p ? p->child(gb("Exists")) : nullptr;
      return e && e->text() == "true";
    }
  };
  Proxy proxy(caller, soap::EndpointReference(address), security);
  return proxy.exists(dn);
}

bool remote_check_privilege(net::SoapCaller& caller, const std::string& address,
                            const container::ProxySecurity& security,
                            const std::string& dn,
                            const std::string& privilege) {
  class Proxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    bool check(const std::string& dn, const std::string& privilege) {
      auto req = std::make_unique<xml::Element>(gb("CheckPrivilege"));
      req->append_element(gb("DN")).set_text(dn);
      req->append_element(gb("Privilege")).set_text(privilege);
      const soap::Envelope r = invoke(wsrf_actions::kCheckPrivilege, std::move(req));
      const xml::Element* p = r.payload();
      const xml::Element* g = p ? p->child(gb("Granted")) : nullptr;
      return g && g->text() == "true";
    }
  };
  Proxy proxy(caller, soap::EndpointReference(address), security);
  return proxy.check(dn, privilege);
}

std::set<std::string> remote_reserved_hosts(
    net::SoapCaller& caller, const std::string& address,
    const container::ProxySecurity& security) {
  class Proxy : public container::ProxyBase {
   public:
    using container::ProxyBase::ProxyBase;
    std::set<std::string> list() {
      const soap::Envelope r =
          invoke(wsrf_actions::kListReservedHosts,
                 std::make_unique<xml::Element>(gb("ListReservedHosts")));
      std::set<std::string> out;
      if (const xml::Element* p = r.payload()) {
        for (const xml::Element* h : p->children_named(gb("Host"))) {
          out.insert(h->text());
        }
      }
      return out;
    }
  };
  Proxy proxy(caller, soap::EndpointReference(address), security);
  return proxy.list();
}

// ---------------------------------------------------------------------------
// AccountService — plain (non-resource) web service per the paper; the
// account state machine lives in app::AccountBook.
// ---------------------------------------------------------------------------

class AccountService final : public container::Service {
 public:
  AccountService(xmldb::XmlDatabase& db, std::string admin_dn)
      : container::Service("Account"), book_(db), admin_dn_(std::move(admin_dn)) {
    register_operation(wsrf_actions::kAddAccount,
                       [this](container::RequestContext& ctx) {
                         require_admin(ctx);
                         const xml::Element& p = ctx.payload();
                         const xml::Element* dn = p.child(gb("DN"));
                         if (!dn) throw soap::SoapFault("Sender", "AddAccount needs DN");
                         std::vector<std::string> privileges;
                         for (const xml::Element* priv :
                              p.children_named(gb("Privilege"))) {
                           privileges.push_back(priv->text());
                         }
                         book_.put(dn->text(), *AccountBook::make_document(
                                                   dn->text(), privileges));
                         soap::Envelope r = container::make_response(
                             ctx, wsrf_actions::kAddAccount + "Response");
                         r.add_payload(gb("AddAccountResponse"));
                         return r;
                       });

    register_operation(wsrf_actions::kAccountExists,
                       [this](container::RequestContext& ctx) {
                         const xml::Element* dn = ctx.payload().child(gb("DN"));
                         if (!dn) throw soap::SoapFault("Sender", "needs DN");
                         bool exists = book_.exists(dn->text());
                         soap::Envelope r = container::make_response(
                             ctx, wsrf_actions::kAccountExists + "Response");
                         r.add_payload(gb("AccountExistsResponse"))
                             .append_element(gb("Exists"))
                             .set_text(exists ? "true" : "false");
                         return r;
                       });

    register_operation(
        wsrf_actions::kCheckPrivilege, [this](container::RequestContext& ctx) {
          const xml::Element* dn = ctx.payload().child(gb("DN"));
          const xml::Element* priv = ctx.payload().child(gb("Privilege"));
          if (!dn || !priv) {
            throw soap::SoapFault("Sender", "needs DN and Privilege");
          }
          soap::Envelope r = container::make_response(
              ctx, wsrf_actions::kCheckPrivilege + "Response");
          r.add_payload(gb("CheckPrivilegeResponse"))
              .append_element(gb("Granted"))
              .set_text(book_.has_privilege(dn->text(), priv->text())
                            ? "true"
                            : "false");
          return r;
        });

    register_operation(wsrf_actions::kRemoveAccount,
                       [this](container::RequestContext& ctx) {
                         require_admin(ctx);
                         const xml::Element* dn = ctx.payload().child(gb("DN"));
                         if (!dn) throw soap::SoapFault("Sender", "needs DN");
                         book_.remove(dn->text());
                         soap::Envelope r = container::make_response(
                             ctx, wsrf_actions::kRemoveAccount + "Response");
                         r.add_payload(gb("RemoveAccountResponse"));
                         return r;
                       });
  }

 private:
  void require_admin(const container::RequestContext& ctx) {
    std::string caller = resolve_caller(ctx);
    if (caller != admin_dn_ && !book_.has_privilege(caller, kPrivilegeAdmin)) {
      throw soap::SoapFault("Sender", "caller '" + caller +
                                          "' lacks the admin privilege");
    }
  }

  AccountBook book_;
  std::string admin_dn_;
};

// ---------------------------------------------------------------------------
// ReservationService — WS-Resources are reservations.
// ---------------------------------------------------------------------------

class ReservationService final : public wsrf::WsrfService {
 public:
  ReservationService(wsrf::ResourceHome& home, std::string address,
                     std::string account_address, net::SoapCaller* caller,
                     container::ProxySecurity outcall_security,
                     common::TimeMs ttl_ms, const common::Clock& clock)
      : wsrf::WsrfService("Reservation", home, make_props(), std::move(address)),
        account_address_(std::move(account_address)),
        caller_(caller),
        outcall_security_(outcall_security),
        ttl_ms_(ttl_ms),
        clock_(clock) {
    import_resource_properties();
    import_resource_lifetime();  // claim == SetTerminationTime; destroy works

    register_operation(
        wsrf_actions::kCreateReservation, [this](container::RequestContext& ctx) {
          const xml::Element* host = ctx.payload().child(gb("Host"));
          if (!host) throw soap::SoapFault("Sender", "CreateReservation needs Host");
          std::string owner = resolve_caller(ctx);

          // Outcall: the VO will not reserve for unknown users.
          if (!remote_account_exists(*caller_, account_address_,
                                     outcall_security_, owner)) {
            throw soap::SoapFault("Sender",
                                  "no VO account for '" + owner + "'");
          }
          // One reservation per host at a time.
          for (const std::string& id : this->home().ids()) {
            auto state = this->home().try_load(id);
            if (!state) continue;
            const xml::Element* h = state->child(gb("Host"));
            if (h && h->text() == host->text()) {
              throw soap::SoapFault("Sender", "host '" + host->text() +
                                                  "' is already reserved");
            }
          }

          auto state = std::make_unique<xml::Element>(gb("Reservation"));
          state->append_element(gb("Host")).set_text(host->text());
          state->append_element(gb("Owner")).set_text(owner);
          // Scheduled termination: now + admin-specified delta.
          soap::EndpointReference epr =
              create_resource(std::move(state), clock_.now() + ttl_ms_);

          soap::Envelope r = container::make_response(
              ctx, wsrf_actions::kCreateReservation + "Response");
          r.add_payload(epr.to_xml(gb("ReservationEPR")));
          return r;
        });

    register_operation(
        wsrf_actions::kListReservedHosts, [this](container::RequestContext& ctx) {
          soap::Envelope r = container::make_response(
              ctx, wsrf_actions::kListReservedHosts + "Response");
          xml::Element& body = r.add_payload(gb("ListReservedHostsResponse"));
          for (const std::string& id : this->home().ids()) {
            auto state = this->home().try_load(id);
            if (!state) continue;
            if (const xml::Element* h = state->child(gb("Host"))) {
              body.append_element(gb("Host")).set_text(h->text());
            }
          }
          return r;
        });
  }

 private:
  static wsrf::PropertySet make_props() {
    wsrf::PropertySet props;
    props.declare_stored(gb("Host"));
    props.declare_stored(gb("Owner"));
    return props;
  }

  std::string account_address_;
  net::SoapCaller* caller_;
  container::ProxySecurity outcall_security_;
  common::TimeMs ttl_ms_;
  const common::Clock& clock_;
};

// ---------------------------------------------------------------------------
// ResourceAllocationService — plain service consulting Account + Reservation.
// ---------------------------------------------------------------------------

class AllocationService final : public container::Service {
 public:
  AllocationService(xmldb::XmlDatabase& db, std::string account_address,
                    std::string reservation_address, net::SoapCaller* caller,
                    container::ProxySecurity outcall_security,
                    std::string admin_dn)
      : container::Service("ResourceAllocation"),
        sites_(db),
        account_address_(std::move(account_address)),
        reservation_address_(std::move(reservation_address)),
        caller_(caller),
        outcall_security_(outcall_security),
        admin_dn_(std::move(admin_dn)) {
    register_operation(wsrf_actions::kRegisterSite,
                       [this](container::RequestContext& ctx) {
                         require_admin(ctx);
                         SiteInfo site = SiteInfo::from_xml(ctx.payload());
                         if (site.host.empty()) {
                           throw soap::SoapFault("Sender", "RegisterSite needs Host");
                         }
                         sites_.put(site.host, *site.to_xml());
                         soap::Envelope r = container::make_response(
                             ctx, wsrf_actions::kRegisterSite + "Response");
                         r.add_payload(gb("RegisterSiteResponse"));
                         return r;
                       });

    register_operation(wsrf_actions::kUnregisterSite,
                       [this](container::RequestContext& ctx) {
                         require_admin(ctx);
                         const xml::Element* host = ctx.payload().child(gb("Host"));
                         if (!host) throw soap::SoapFault("Sender", "needs Host");
                         sites_.remove(host->text());
                         soap::Envelope r = container::make_response(
                             ctx, wsrf_actions::kUnregisterSite + "Response");
                         r.add_payload(gb("UnregisterSiteResponse"));
                         return r;
                       });

    register_operation(
        wsrf_actions::kGetAvailableResources,
        [this](container::RequestContext& ctx) {
          const xml::Element* app = ctx.payload().child(gb("Application"));
          if (!app) throw soap::SoapFault("Sender", "needs Application");
          std::string caller_dn = resolve_caller(ctx);

          // Outcall 1: does this user have an account in this VO?
          if (!remote_account_exists(*caller_, account_address_,
                                     outcall_security_, caller_dn)) {
            throw soap::SoapFault("Sender",
                                  "no VO account for '" + caller_dn + "'");
          }
          // Outcall 2: which hosts are currently reserved? (The WSRF
          // variant keeps reservations as WS-Resources, so the site
          // directory's availability filter takes them as a predicate.)
          std::set<std::string> reserved = remote_reserved_hosts(
              *caller_, reservation_address_, outcall_security_);

          soap::Envelope r = container::make_response(
              ctx, wsrf_actions::kGetAvailableResources + "Response");
          xml::Element& body =
              r.add_payload(gb("GetAvailableResourcesResponse"));
          for (auto& site : sites_.available(
                   app->text(), [&reserved](const std::string& host,
                                            const xml::Element&) {
                     return reserved.contains(host);
                   })) {
            body.append(std::move(site));
          }
          return r;
        });
  }

 private:
  void require_admin(const container::RequestContext& ctx) {
    std::string caller_dn = resolve_caller(ctx);
    if (caller_dn != admin_dn_) {
      throw soap::SoapFault("Sender", "site registry is admin-only");
    }
  }

  SiteDirectory sites_;
  std::string account_address_;
  std::string reservation_address_;
  net::SoapCaller* caller_;
  container::ProxySecurity outcall_security_;
  std::string admin_dn_;
};

// ---------------------------------------------------------------------------
// DataService — WS-Resources are directories; Files is a computed property.
// ---------------------------------------------------------------------------

class DataService final : public wsrf::WsrfService {
 public:
  DataService(wsrf::ResourceHome& home, std::string address, FileStore& files,
              std::string account_address, net::SoapCaller* caller,
              container::ProxySecurity outcall_security)
      : wsrf::WsrfService("Data", home, make_props(files), std::move(address)),
        vault_(files),
        account_address_(std::move(account_address)),
        caller_(caller),
        outcall_security_(outcall_security) {
    import_resource_properties();
    import_resource_lifetime();

    // Destroy must also remove the directory and its contents; hook in.
    this->home().on_destroyed([this](const std::string& id) {
      vault_.files().remove_directory(id);
    });

    register_operation(
        wsrf_actions::kCreateDirectory, [this](container::RequestContext& ctx) {
          std::string owner = resolve_caller(ctx);
          auto state = std::make_unique<xml::Element>(gb("Directory"));
          state->append_element(gb("Owner")).set_text(owner);
          // Clients do not name directory resources; the service assigns a
          // GUID (the id doubles as the directory name).
          soap::EndpointReference epr = create_resource(std::move(state));
          std::string id = *epr.reference_property(wsrf::resource_id_qname());
          vault_.files().ensure_directory(id);
          // Record the name in the state for the Files property getter.
          auto stored = this->home().load(id);
          stored->append_element(gb("Name")).set_text(id);
          this->home().save(id, *stored);

          soap::Envelope r = container::make_response(
              ctx, wsrf_actions::kCreateDirectory + "Response");
          r.add_payload(epr.to_xml(gb("DirectoryEPR")));
          return r;
        });

    register_operation(wsrf_actions::kUpload, [this](container::RequestContext& ctx) {
      std::string id = resolve_resource(ctx);
      auto state = this->home().load(id);
      require_owner(ctx, *state);
      // Outcall: VO policy — stage-in only for current account holders
      // (the upload's "pair of calls" the paper measures).
      if (!remote_account_exists(*caller_, account_address_, outcall_security_,
                                 resolve_caller(ctx))) {
        throw soap::SoapFault("Sender", "no VO account for caller");
      }
      const xml::Element* name = ctx.payload().child(gb("FileName"));
      const xml::Element* content = ctx.payload().child(gb("Content"));
      if (!name || !content) {
        throw soap::SoapFault("Sender", "Upload needs FileName and Content");
      }
      vault_.put_base64(id, name->text(), content->text());
      soap::Envelope r =
          container::make_response(ctx, wsrf_actions::kUpload + "Response");
      r.add_payload(gb("UploadResponse"));
      return r;
    });

    register_operation(wsrf_actions::kDownload, [this](container::RequestContext& ctx) {
      std::string id = resolve_resource(ctx);
      auto state = this->home().load(id);
      require_owner(ctx, *state);
      const xml::Element* name = ctx.payload().child(gb("FileName"));
      if (!name) throw soap::SoapFault("Sender", "Download needs FileName");
      std::optional<std::string> content = vault_.get_base64(id, name->text());
      if (!content) {
        throw soap::SoapFault("Sender", "no file '" + name->text() + "'");
      }
      soap::Envelope r =
          container::make_response(ctx, wsrf_actions::kDownload + "Response");
      r.add_payload(gb("DownloadResponse"))
          .append_element(gb("Content"))
          .set_text(*content);
      return r;
    });

    register_operation(wsrf_actions::kDeleteFile, [this](container::RequestContext& ctx) {
      std::string id = resolve_resource(ctx);
      auto state = this->home().load(id);
      require_owner(ctx, *state);
      const xml::Element* name = ctx.payload().child(gb("FileName"));
      if (!name) throw soap::SoapFault("Sender", "DeleteFile needs FileName");
      if (!vault_.remove(id, name->text())) {
        throw soap::SoapFault("Sender", "no file '" + name->text() + "'");
      }
      soap::Envelope r =
          container::make_response(ctx, wsrf_actions::kDeleteFile + "Response");
      r.add_payload(gb("DeleteFileResponse"));
      return r;
    });
  }

 private:
  static wsrf::PropertySet make_props(FileStore& files) {
    wsrf::PropertySet props;
    props.declare_stored(gb("Owner"));
    // "No information for individual files is actually stored as
    // resources; instead these resource properties are generated
    // dynamically by examining the contents [of the] directory."
    props.declare_computed(gb("Files"), [&files](const xml::Element& state) {
      std::vector<std::unique_ptr<xml::Element>> out;
      const xml::Element* name = state.child(gb("Name"));
      if (!name) return out;
      for (const std::string& file : files.list(name->text())) {
        auto el = std::make_unique<xml::Element>(gb("Files"));
        el->set_text(file);
        out.push_back(std::move(el));
      }
      return out;
    });
    return props;
  }

  void require_owner(const container::RequestContext& ctx,
                     const xml::Element& state) {
    const xml::Element* owner = state.child(gb("Owner"));
    if (!owner || owner->text() != resolve_caller(ctx)) {
      throw soap::SoapFault("Sender", "caller does not own this directory");
    }
  }

  DataVault vault_;
  std::string account_address_;
  net::SoapCaller* caller_;
  container::ProxySecurity outcall_security_;
};

// ---------------------------------------------------------------------------
// ExecService — WS-Resources are jobs; the job state machine lives in
// app::JobBoard.
// ---------------------------------------------------------------------------

class ExecService final : public wsrf::WsrfService {
 public:
  ExecService(wsrf::ResourceHome& home, std::string address, std::string host,
              std::string account_address, net::SoapCaller* caller,
              container::ProxySecurity outcall_security, JobRunner& runner,
              FileStore& files, wsn::NotificationProducer* producer)
      : wsrf::WsrfService("Exec", home, make_props(runner), std::move(address)),
        host_(std::move(host)),
        account_address_(std::move(account_address)),
        caller_(caller),
        outcall_security_(outcall_security),
        jobs_(runner),
        files_(files),
        producer_(producer) {
    import_resource_properties();
    import_resource_lifetime();

    register_operation(wsrf_actions::kStartJob, [this](container::RequestContext& ctx) {
      jobs_.poll();
      const xml::Element& p = ctx.payload();
      const xml::Element* command = p.child(gb("Command"));
      const xml::Element* res_el = p.child(gb("ReservationEPR"));
      const xml::Element* dir_el = p.child(gb("DirectoryEPR"));
      if (!command || !res_el) {
        throw soap::SoapFault("Sender", "StartJob needs Command and ReservationEPR");
      }
      std::string owner = resolve_caller(ctx);
      soap::EndpointReference res_epr = soap::EndpointReference::from_xml(*res_el);

      // Outcall 1: verify the reservation covers this host and this owner.
      wsrf::WsResourceProxy reservation(*caller_, res_epr, outcall_security_);
      auto props = reservation.get_properties({gb("Host"), gb("Owner")});
      std::string res_host, res_owner;
      for (const auto& el : props) {
        if (el->name() == gb("Host")) res_host = el->text();
        if (el->name() == gb("Owner")) res_owner = el->text();
      }
      if (res_host != host_) {
        throw soap::SoapFault("Sender", "reservation is for host '" + res_host +
                                            "', not '" + host_ + "'");
      }
      if (res_owner != owner) {
        throw soap::SoapFault("Sender", "reservation belongs to '" + res_owner +
                                            "', caller is '" + owner + "'");
      }
      // Outcall 2: VO policy — may this user submit jobs?
      if (!remote_check_privilege(*caller_, account_address_, outcall_security_,
                                  owner, kPrivilegeSubmit)) {
        throw soap::SoapFault("Sender",
                              "'" + owner + "' lacks the submit privilege");
      }
      // Outcall 3: claim the reservation by lengthening its lifetime
      // (the paper's Grid-in-a-Box sets it to infinity).
      reservation.set_termination_time(container::LifetimeManager::kNever);

      // Working directory from the co-located DataService.
      std::string working_dir;
      if (dir_el) {
        soap::EndpointReference dir_epr =
            soap::EndpointReference::from_xml(*dir_el);
        auto dir_id = dir_epr.reference_property(wsrf::resource_id_qname());
        if (dir_id) working_dir = files_.path_of(*dir_id).string();
      }

      auto state = JobBoard::make_document(owner, command->text());
      state->append(res_epr.to_xml(gb("ReservationEPR")));

      // Spawn; the exit callback publishes JobCompleted (with the job EPR)
      // and destroys the reservation — the automatic unreserve of the
      // WSRF variant.
      soap::EndpointReference job_epr = create_resource(std::move(state));
      std::string job_id =
          *job_epr.reference_property(wsrf::resource_id_qname());
      std::string pid = jobs_.start(
          command->text(), working_dir,
          [this, job_epr, res_epr](const std::string&,
                                   const JobRunner::Status& status) {
            if (producer_) {
              auto event =
                  JobBoard::completion_event(job_epr, status.exit_code);
              producer_->notify(kJobCompletedTopic, *event);
            }
            try {
              wsrf::WsResourceProxy reservation(*caller_, res_epr,
                                                outcall_security_);
              reservation.destroy();
            } catch (const std::exception&) {
              // Reservation already gone — nothing to unreserve.
            }
          });
      // Record the pid for the computed status properties.
      auto stored = this->home().load(job_id);
      JobBoard::set_pid(*stored, pid);
      this->home().save(job_id, *stored);

      soap::Envelope r =
          container::make_response(ctx, wsrf_actions::kStartJob + "Response");
      r.add_payload(job_epr.to_xml(gb("JobEPR")));
      return r;
    });

    // Destroy should kill a running job first; wrap the imported Destroy.
    Service::Operation destroy_op = [this](container::RequestContext& ctx) {
      jobs_.poll();
      std::string id = resolve_resource(ctx);
      if (auto state = this->home().try_load(id)) {
        jobs_.terminate(*state);
      }
      if (!this->home().destroy(id)) {
        wsrf::throw_base_fault(wsrf::FaultType::kResourceUnknown,
                               "no job '" + id + "'");
      }
      soap::Envelope r =
          container::make_response(ctx, wsrf::actions::kDestroy + "Response");
      r.add_payload(xml::QName(soap::ns::kWsrfRl, "DestroyResponse"));
      return r;
    };
    register_operation(wsrf::actions::kDestroy, std::move(destroy_op));
  }

  /// Lets the deployment drive job completion (tests advance a ManualClock
  /// then poll).
  JobRunner& runner() noexcept { return jobs_.runner(); }

 private:
  static wsrf::PropertySet make_props(JobRunner& runner) {
    wsrf::PropertySet props;
    props.declare_stored(gb("Owner"));
    props.declare_stored(gb("Command"));
    auto status_of = [&runner](const xml::Element& state)
        -> std::optional<JobRunner::Status> {
      auto pid = JobBoard::pid_of(state);
      if (!pid) return std::nullopt;
      return runner.status(*pid);
    };
    props.declare_computed(gb("Status"), [status_of](const xml::Element& state) {
      std::vector<std::unique_ptr<xml::Element>> out;
      auto el = std::make_unique<xml::Element>(gb("Status"));
      auto status = status_of(state);
      el->set_text(status ? JobBoard::state_name(status->state) : "unknown");
      out.push_back(std::move(el));
      return out;
    });
    props.declare_computed(gb("ExitCode"), [status_of](const xml::Element& state) {
      std::vector<std::unique_ptr<xml::Element>> out;
      auto status = status_of(state);
      if (status && status->state != JobRunner::State::kRunning) {
        auto el = std::make_unique<xml::Element>(gb("ExitCode"));
        el->set_text(std::to_string(status->exit_code));
        out.push_back(std::move(el));
      }
      return out;
    });
    return props;
  }

  std::string host_;
  std::string account_address_;
  net::SoapCaller* caller_;
  container::ProxySecurity outcall_security_;
  JobBoard jobs_;
  FileStore& files_;
  wsn::NotificationProducer* producer_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Deployment bundle
// ---------------------------------------------------------------------------

struct WsrfGridDeployment::Impl {
  Params params;
  xmldb::XmlDatabase central_db;
  container::Container central;
  std::unique_ptr<wsrf::ResourceHome> reservation_home;
  std::unique_ptr<AccountService> account;
  std::unique_ptr<ReservationService> reservation;
  std::unique_ptr<AllocationService> allocation;

  struct Host {
    std::string name;
    std::string base;
    xmldb::XmlDatabase db;
    container::Container container;
    std::unique_ptr<FileStore> files;
    std::unique_ptr<JobRunner> runner;
    std::unique_ptr<wsrf::ResourceHome> dir_home;
    std::unique_ptr<wsrf::ResourceHome> job_home;
    std::unique_ptr<wsrf::ResourceHome> sub_home;
    std::unique_ptr<wsn::SubscriptionManagerService> manager;
    std::unique_ptr<DataService> data;
    std::unique_ptr<ExecService> exec;
    std::unique_ptr<wsn::NotificationProducer> producer;

    Host(HostParams p, const Params& params)
        : name(p.host),
          base(p.base),
          db(std::move(p.backend), {.write_through_cache = true}),
          container(p.container) {
      files = std::make_unique<FileStore>(p.file_root);
      runner = std::make_unique<JobRunner>(*p.container.clock);
      dir_home = std::make_unique<wsrf::ResourceHome>(db, "directories",
                                                      &container.lifetime());
      job_home =
          std::make_unique<wsrf::ResourceHome>(db, "jobs", &container.lifetime());
      sub_home = std::make_unique<wsrf::ResourceHome>(db, "job-subscriptions",
                                                      &container.lifetime());
      manager = std::make_unique<wsn::SubscriptionManagerService>(
          *sub_home, base + "/JobSubscriptions");
      producer = std::make_unique<wsn::NotificationProducer>(
          wsn::NotificationProducer::Config{params.notification_sink,
                                            base + "/Exec", manager.get(),
                                            p.container.clock},
          [] {
            wsn::TopicNamespace topics;
            topics.add(kJobCompletedTopic);
            return topics;
          }());
      data = std::make_unique<DataService>(
          *dir_home, base + "/Data", *files, params.central_base + "/Account",
          params.outcall_caller, params.outcall_security);
      exec = std::make_unique<ExecService>(
          *job_home, base + "/Exec", name, params.central_base + "/Account",
          params.outcall_caller, params.outcall_security, *runner, *files,
          producer.get());
      producer->register_into(*exec);
      container.deploy("/Data", *data);
      container.deploy("/Exec", *exec);
      container.deploy("/JobSubscriptions", *manager);
    }
  };
  std::vector<std::unique_ptr<Host>> hosts;

  explicit Impl(Params p)
      : params(std::move(p)),
        central_db(std::move(params.backend),
                   {.write_through_cache = params.write_through_cache}),
        central(params.central_container) {
    reservation_home = std::make_unique<wsrf::ResourceHome>(
        central_db, "reservations", &central.lifetime());
    account = std::make_unique<AccountService>(central_db, params.admin_dn);
    reservation = std::make_unique<ReservationService>(
        *reservation_home, params.central_base + "/Reservation",
        params.central_base + "/Account", params.outcall_caller,
        params.outcall_security, params.reservation_ttl_ms,
        *params.central_container.clock);
    allocation = std::make_unique<AllocationService>(
        central_db, params.central_base + "/Account",
        params.central_base + "/Reservation", params.outcall_caller,
        params.outcall_security, params.admin_dn);
    central.deploy("/Account", *account);
    central.deploy("/Reservation", *reservation);
    central.deploy("/ResourceAllocation", *allocation);
  }
};

WsrfGridDeployment::WsrfGridDeployment(Params params)
    : impl_(std::make_unique<Impl>(std::move(params))) {}
WsrfGridDeployment::~WsrfGridDeployment() = default;

void WsrfGridDeployment::add_host(HostParams params) {
  impl_->hosts.push_back(
      std::make_unique<Impl::Host>(std::move(params), impl_->params));
}

container::Container& WsrfGridDeployment::central_container() {
  return impl_->central;
}

container::Container& WsrfGridDeployment::host_container(const std::string& host) {
  for (auto& h : impl_->hosts) {
    if (h->name == host) return h->container;
  }
  throw std::out_of_range("unknown host " + host);
}

JobRunner& WsrfGridDeployment::job_runner(const std::string& host) {
  for (auto& h : impl_->hosts) {
    if (h->name == host) return *h->runner;
  }
  throw std::out_of_range("unknown host " + host);
}

xmldb::XmlDatabase& WsrfGridDeployment::central_db() {
  return impl_->central_db;
}

std::string WsrfGridDeployment::account_address() const {
  return impl_->params.central_base + "/Account";
}
std::string WsrfGridDeployment::allocation_address() const {
  return impl_->params.central_base + "/ResourceAllocation";
}
std::string WsrfGridDeployment::reservation_address() const {
  return impl_->params.central_base + "/Reservation";
}
std::string WsrfGridDeployment::exec_address(const std::string& host) const {
  for (auto& h : impl_->hosts) {
    if (h->name == host) return h->base + "/Exec";
  }
  throw std::out_of_range("unknown host " + host);
}
std::string WsrfGridDeployment::data_address(const std::string& host) const {
  for (auto& h : impl_->hosts) {
    if (h->name == host) return h->base + "/Data";
  }
  throw std::out_of_range("unknown host " + host);
}

const WsrfGridDeployment::Params& WsrfGridDeployment::params() const {
  return impl_->params;
}

}  // namespace gs::gridbox
