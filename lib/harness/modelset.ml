module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Features = Tessera_features.Features
module Trainset = Tessera_dataproc.Trainset
module Normalize = Tessera_dataproc.Normalize
module Labels = Tessera_dataproc.Labels
module Engine = Tessera_jit.Engine
module Program = Tessera_il.Program
module Meth = Tessera_il.Meth

type solver = Ovr | Crammer_singer

type level_model = {
  level : Plan.level;
  scaling : Normalize.scaling;
  labels : Labels.t;
  model : Tessera_svm.Model.t;
  stats : Trainset.level_stats;
  train_seconds : float;
}

type t = {
  name : string;
  excluded : string option;
  levels : level_model list;
}

let default_levels = [ Plan.Cold; Plan.Warm; Plan.Hot ]

let train ?(solver = Crammer_singer) ?(params = Tessera_svm.Linear.default_params)
    ?(levels = default_levels) ?(jobs = 1) ~name ?excluded records =
  let levels =
    Tessera_util.Pool.run_list ~jobs
      (fun level ->
        let ts = Trainset.build ~level records in
        let problem = Trainset.problem ts in
        if Tessera_svm.Problem.n_classes problem < 2 then None
        else begin
          (* wall clock: process CPU time would also count the levels
             training beside this one on other domains *)
          let t0 = Unix.gettimeofday () in
          let model =
            match solver with
            | Ovr -> Tessera_svm.Linear.train_ovr ~params problem
            | Crammer_singer -> Tessera_svm.Cs.train ~params problem
          in
          let train_seconds = Unix.gettimeofday () -. t0 in
          Some
            {
              level;
              scaling = ts.Trainset.scaling;
              labels = ts.Trainset.labels;
              model;
              stats = ts.Trainset.stats;
              train_seconds;
            }
        end)
      levels
    |> List.filter_map Fun.id
  in
  { name; excluded; levels }

let find t level = List.find_opt (fun lm -> lm.level = level) t.levels

let predict t ~level features =
  match find t level with
  | None -> Modifier.null
  | Some lm ->
      Trainset.predictor ~scaling:lm.scaling ~labels:lm.labels ~model:lm.model
        features

let choose_modifier t engine ~meth_id ~level =
  let program = Engine.program engine in
  let m = Program.meth program meth_id in
  Some (predict t ~level (Features.extract ~program m))

(* wire features are raw; apply this level model's scaling file *)
let predict_raw lm features =
  Trainset.predictor ~scaling:lm.scaling ~labels:lm.labels ~model:lm.model
    (Features.of_array (Array.map int_of_float features))

let server_predictor t ~level ~features =
  match find t level with
  | None -> Modifier.null
  | Some lm -> predict_raw lm features

let server_batch_predictor t ~level rows =
  (* one level-model lookup for the whole batch: the serving engine
     groups its queue by level before calling *)
  match find t level with
  | None -> Array.map (fun _ -> Modifier.null) rows
  | Some lm -> Array.map (predict_raw lm) rows

let level_file dir what level ext =
  Filename.concat dir
    (Printf.sprintf "%s_%s.%s" what (Plan.level_name level) ext)

let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun lm ->
      Tessera_svm.Model.save lm.model (level_file dir "model" lm.level "txt");
      Normalize.save lm.scaling (level_file dir "scaling" lm.level "txt");
      Labels.save lm.labels (level_file dir "labels" lm.level "txt"))
    t.levels

let load ~name ~dir =
  let levels =
    List.filter_map
      (fun level ->
        let mf = level_file dir "model" level "txt" in
        if not (Sys.file_exists mf) then None
        else
          let model = Tessera_svm.Model.load mf in
          let scaling = Normalize.load (level_file dir "scaling" level "txt") in
          let labels = Labels.load (level_file dir "labels" level "txt") in
          Some
            {
              level;
              scaling;
              labels;
              model;
              stats =
                {
                  Trainset.level;
                  data_instances = 0;
                  unique_classes = 0;
                  unique_feature_vectors = 0;
                  training_instances = 0;
                  training_classes = Labels.size labels;
                  training_feature_vectors = 0;
                };
              train_seconds = 0.0;
            })
      Plan.([ Cold; Warm; Hot; Very_hot; Scorching ])
  in
  { name; excluded = None; levels }
