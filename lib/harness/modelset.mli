(** A deployable model set: one trained model per learned optimization
    level (cold, warm, hot — scorching keeps the original plan, Section
    8.1), each with its scaling file and label lookup table. *)

module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Features = Tessera_features.Features

type solver = Ovr | Crammer_singer

type level_model = {
  level : Plan.level;
  scaling : Tessera_dataproc.Normalize.scaling;
  labels : Tessera_dataproc.Labels.t;
  model : Tessera_svm.Model.t;
  stats : Tessera_dataproc.Trainset.level_stats;
  train_seconds : float;  (** wall time spent by the solver *)
}

type t = {
  name : string;  (** e.g. "H3" *)
  excluded : string option;  (** LOO benchmark tag left out, if any *)
  levels : level_model list;
}

val train :
  ?solver:solver ->
  ?params:Tessera_svm.Linear.params ->
  ?levels:Plan.level list ->
  ?jobs:int ->
  name:string ->
  ?excluded:string ->
  Tessera_collect.Record.t list ->
  t
(** Builds per-level training sets (rank → normalize → remap) and trains
    a model per level; levels whose training set is degenerate (fewer
    than two classes) are skipped.  [jobs] (default 1) trains the levels
    on a {!Tessera_util.Pool}; the solvers are deterministic and levels
    come back in order, so the trained set does not depend on [jobs].
    [train_seconds] is the solver's wall time for that level alone, so
    it never exceeds the wall time of the whole call. *)

val predict : t -> level:Plan.level -> Features.t -> Modifier.t
(** Null modifier for levels without a model. *)

val choose_modifier :
  t -> Tessera_jit.Engine.t -> meth_id:int -> level:Plan.level -> Modifier.t option
(** Adapter for {!Tessera_jit.Engine.callbacks.choose_modifier}: extracts
    the method's features and predicts.  Never returns [None]. *)

val server_predictor :
  t -> level:Plan.level -> features:float array -> Modifier.t
(** The model server's answer to one wire request.  Incoming features
    are expected raw (unnormalized); the server applies its own scaling.
    Null modifier for levels without a model. *)

val server_batch_predictor : t -> Tessera_protocol.Serve.batch_predictor
(** Batched form for the serving engine: one level-model lookup per
    batch, one modifier per input row, each row answered exactly as
    {!server_predictor} answers it. *)

val save : t -> dir:string -> unit
(** Writes [model_<level>.txt], [scaling_<level>.txt],
    [labels_<level>.txt] under [dir]. *)

val load : name:string -> dir:string -> t
